open Sw_arch

let ts = 256

let test_contiguous_aligned () =
  let a = Mem_req.contiguous ~addr:0 ~bytes:1024 in
  Alcotest.(check int) "payload" 1024 (Mem_req.payload_bytes a);
  Alcotest.(check int) "4 transactions" 4 (Mem_req.transactions ~trans_size:ts a);
  Alcotest.(check int) "model MRT 4" 4 (Mem_req.mrt_model ~trans_size:ts a)

let test_contiguous_misaligned () =
  (* 256 bytes starting at offset 128 straddles two blocks *)
  let a = Mem_req.contiguous ~addr:128 ~bytes:256 in
  Alcotest.(check int) "physical 2" 2 (Mem_req.transactions ~trans_size:ts a);
  Alcotest.(check int) "model still 1 (Eq 5 ignores alignment)" 1 (Mem_req.mrt_model ~trans_size:ts a)

let test_small_request_full_transaction () =
  let a = Mem_req.contiguous ~addr:0 ~bytes:8 in
  Alcotest.(check int) "one transaction for 8 bytes" 1 (Mem_req.transactions ~trans_size:ts a);
  Alcotest.(check bool) "mostly wasted" true (Mem_req.wasted_fraction ~trans_size:ts a > 0.9)

let test_strided () =
  let a = Mem_req.strided ~addr:0 ~row_bytes:256 ~stride:1024 ~rows:4 in
  Alcotest.(check int) "payload" 1024 (Mem_req.payload_bytes a);
  Alcotest.(check int) "4 chunks" 4 (List.length (Mem_req.chunks a));
  Alcotest.(check int) "one transaction per row" 4 (Mem_req.transactions ~trans_size:ts a);
  Alcotest.(check int) "model matches here" 4 (Mem_req.mrt_model ~trans_size:ts a)

let test_strided_small_rows_waste () =
  (* 64-byte rows each still burn one 256-byte transaction: 75% waste *)
  let a = Mem_req.strided ~addr:0 ~row_bytes:64 ~stride:1024 ~rows:8 in
  Alcotest.(check int) "8 transactions" 8 (Mem_req.transactions ~trans_size:ts a);
  Alcotest.(check (float 1e-9)) "75% wasted" 0.75 (Mem_req.wasted_fraction ~trans_size:ts a)

let test_strided_single_row_collapses () =
  match Mem_req.strided ~addr:64 ~row_bytes:128 ~stride:512 ~rows:1 with
  | Mem_req.Contiguous { addr; bytes } ->
      Alcotest.(check int) "addr" 64 addr;
      Alcotest.(check int) "bytes" 128 bytes
  | Mem_req.Strided _ -> Alcotest.fail "rows=1 should collapse to contiguous"

let test_constructors_reject () =
  Alcotest.check_raises "zero bytes" (Invalid_argument "Mem_req.contiguous: bytes must be positive")
    (fun () -> ignore (Mem_req.contiguous ~addr:0 ~bytes:0));
  Alcotest.check_raises "negative addr" (Invalid_argument "Mem_req.contiguous: addr must be non-negative")
    (fun () -> ignore (Mem_req.contiguous ~addr:(-1) ~bytes:8));
  Alcotest.check_raises "stride under row" (Invalid_argument "Mem_req.strided: stride must cover row_bytes")
    (fun () -> ignore (Mem_req.strided ~addr:0 ~row_bytes:128 ~stride:64 ~rows:2))

let test_iter_transactions () =
  let a = Mem_req.contiguous ~addr:100 ~bytes:300 in
  let seen = ref [] in
  Mem_req.iter_transactions ~trans_size:ts a (fun addr -> seen := addr :: !seen);
  Alcotest.(check (list int)) "block addresses" [ 0; 256 ] (List.rev !seen)

let test_iter_counts_match () =
  let a = Mem_req.strided ~addr:300 ~row_bytes:200 ~stride:512 ~rows:3 in
  let n = ref 0 in
  Mem_req.iter_transactions ~trans_size:ts a (fun _ -> incr n);
  Alcotest.(check int) "iter count = transactions" (Mem_req.transactions ~trans_size:ts a) !n

let test_route_cg () =
  Alcotest.(check int) "block 0 -> cg 0" 0 (Mem_req.route_cg ~trans_size:ts ~n_cgs:4 0);
  Alcotest.(check int) "block 1 -> cg 1" 1 (Mem_req.route_cg ~trans_size:ts ~n_cgs:4 256);
  Alcotest.(check int) "block 4 wraps" 0 (Mem_req.route_cg ~trans_size:ts ~n_cgs:4 1024);
  Alcotest.(check int) "single cg" 0 (Mem_req.route_cg ~trans_size:ts ~n_cgs:1 9999999 / ts * ts)

let gen_access =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          map2 (fun addr bytes -> Mem_req.contiguous ~addr ~bytes) (int_range 0 100_000)
            (int_range 1 10_000) );
        ( 1,
          map (fun (addr, row_bytes, extra, rows) ->
              Mem_req.strided ~addr ~row_bytes ~stride:(row_bytes + extra) ~rows)
            (quad (int_range 0 100_000) (int_range 1 2_000) (int_range 0 2_000) (int_range 1 20)) );
      ])

let arb_access = QCheck.make gen_access

let prop_physical_vs_model =
  (* physical transactions differ from Eq 5 by at most one per chunk *)
  QCheck.Test.make ~name:"physical MRT within +chunks of model MRT" ~count:500 arb_access (fun a ->
      let phys = Mem_req.transactions ~trans_size:ts a in
      let model = Mem_req.mrt_model ~trans_size:ts a in
      let chunks = List.length (Mem_req.chunks a) in
      phys >= model && phys <= model + chunks)

(* The strided count sums one period of rows; the per-row walk over
   [chunks] is its definition. *)
let prop_transactions_per_row =
  let gen =
    QCheck.Gen.(
      map
        (fun (addr, row_bytes, extra, rows) ->
          Mem_req.strided ~addr ~row_bytes ~stride:(row_bytes + extra) ~rows)
        (quad (int_range 0 100_000) (int_range 1 600) (int_range 0 1_000) (int_range 1 3_000)))
  in
  QCheck.Test.make ~name:"strided transactions = per-row sum" ~count:500 (QCheck.make gen)
    (fun a ->
      List.for_all
        (fun trans_size ->
          Mem_req.transactions ~trans_size a
          = List.fold_left
              (fun acc (addr, bytes) ->
                acc + ((addr + bytes - 1) / trans_size) - (addr / trans_size) + 1)
              0 (Mem_req.chunks a))
        [ 64; 256; 1024 ])

let prop_transactions_cover_payload =
  QCheck.Test.make ~name:"transactions cover payload bytes" ~count:500 arb_access (fun a ->
      Mem_req.transactions ~trans_size:ts a * ts >= Mem_req.payload_bytes a)

let prop_waste_in_range =
  QCheck.Test.make ~name:"wasted fraction in [0,1)" ~count:500 arb_access (fun a ->
      let w = Mem_req.wasted_fraction ~trans_size:ts a in
      w >= 0.0 && w < 1.0)

let tests =
  ( "mem_req",
    [
      Alcotest.test_case "contiguous aligned" `Quick test_contiguous_aligned;
      Alcotest.test_case "contiguous misaligned" `Quick test_contiguous_misaligned;
      Alcotest.test_case "small request wastes a transaction" `Quick test_small_request_full_transaction;
      Alcotest.test_case "strided" `Quick test_strided;
      Alcotest.test_case "strided small rows waste" `Quick test_strided_small_rows_waste;
      Alcotest.test_case "rows=1 collapses" `Quick test_strided_single_row_collapses;
      Alcotest.test_case "constructor guards" `Quick test_constructors_reject;
      Alcotest.test_case "iter transactions" `Quick test_iter_transactions;
      QCheck_alcotest.to_alcotest prop_transactions_per_row;
      Alcotest.test_case "iter count consistency" `Quick test_iter_counts_match;
      Alcotest.test_case "route_cg round robin" `Quick test_route_cg;
      QCheck_alcotest.to_alcotest prop_physical_vs_model;
      QCheck_alcotest.to_alcotest prop_transactions_cover_payload;
      QCheck_alcotest.to_alcotest prop_waste_in_range;
    ] )
