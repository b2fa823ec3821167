(* Cross-cutting simulator properties: how the machine responds to
   parameter changes.  These guard the physical plausibility of the
   substrate itself. *)

open Sw_isa
open Sw_arch
open Sw_sim

let p = Params.default

let dma_get ?(tag = 0) ?(addr = 0) bytes =
  Program.Dma_issue { dir = Program.Get; accesses = [ Mem_req.contiguous ~addr ~bytes ]; tag }

let streaming_fleet ~cpes ~chunk_bytes ~chunks =
  Array.init cpes (fun i ->
      [|
        Program.Repeat
          {
            trips = chunks;
            body = [| dma_get ~addr:(i * chunk_bytes) chunk_bytes; Program.Dma_wait 0 |];
          };
      |])

(* hand-written programs reach the engine through its compile bridge *)
let compile_run cfg progs = Engine.run cfg (Engine.compile cfg progs)

let run ?(params = p) progs = compile_run (Config.ideal params) progs

let test_more_bandwidth_never_slower () =
  let progs = streaming_fleet ~cpes:64 ~chunk_bytes:8192 ~chunks:4 in
  let t bw = (run ~params:{ p with Params.mem_bw_bytes_per_s = bw } progs).Metrics.cycles in
  Alcotest.(check bool) "2x bandwidth helps" true (t 64e9 < t 32e9);
  Alcotest.(check bool) "half bandwidth hurts" true (t 16e9 > t 32e9)

let test_latency_increase_never_faster () =
  let progs = streaming_fleet ~cpes:8 ~chunk_bytes:2048 ~chunks:4 in
  let t l_base = (run ~params:{ p with Params.l_base } progs).Metrics.cycles in
  Alcotest.(check bool) "monotone in base latency" true (t 220 <= t 440)

let test_noc_penalty_visible () =
  (* one CPE, 2 CGs: half its transactions are remote *)
  let progs = [| [| dma_get (16 * 256); Program.Dma_wait 0 |] |] in
  let t noc =
    (run ~params:{ (Params.with_cgs p 2) with Params.noc_extra_latency = noc } progs)
      .Metrics.cycles
  in
  Alcotest.(check bool) "noc latency adds" true (t 200 > t 0)

let test_jitter_bounded_effect () =
  let progs = streaming_fleet ~cpes:64 ~chunk_bytes:4096 ~chunks:8 in
  let t jitter seed =
    (compile_run { (Config.ideal p) with Config.start_jitter = jitter; seed } progs).Metrics.cycles
  in
  let base = t 0 1 in
  List.iter
    (fun seed ->
      let skewed = t 48 seed in
      Alcotest.(check bool)
        (Printf.sprintf "jitter(seed %d) shifts under 1%%" seed)
        true
        (Float.abs (skewed -. base) /. base < 0.01))
    [ 1; 2; 3 ]

let test_overheads_scale_with_chunks () =
  let mk chunks = streaming_fleet ~cpes:1 ~chunk_bytes:256 ~chunks in
  let cost chunks =
    let ideal = (compile_run (Config.ideal p) (mk chunks)).Metrics.cycles in
    let real = (compile_run (Config.default p) (mk chunks)).Metrics.cycles in
    real -. ideal
  in
  (* per-chunk CPE overheads accumulate roughly linearly *)
  Alcotest.(check bool) "8 chunks cost more overhead than 2" true (cost 8 > cost 2 *. 2.0)

let test_event_limit_enforced () =
  let progs = streaming_fleet ~cpes:64 ~chunk_bytes:4096 ~chunks:64 in
  match compile_run { (Config.ideal p) with Config.max_events = 100 } progs with
  | exception Engine.Event_limit -> ()
  | _ -> Alcotest.fail "expected Event_limit"

let test_metrics_payload_accounting () =
  let progs = streaming_fleet ~cpes:4 ~chunk_bytes:1024 ~chunks:3 in
  let m = run progs in
  Alcotest.(check int) "payload = cpes x chunks x bytes" (4 * 3 * 1024) m.Metrics.payload_bytes;
  Alcotest.(check int) "dma request count" (4 * 3) m.Metrics.dma_requests

let prop_bandwidth_monotone =
  QCheck.Test.make ~name:"makespan monotone in bandwidth" ~count:20
    QCheck.(int_range 1 8)
    (fun k ->
      let progs = streaming_fleet ~cpes:32 ~chunk_bytes:4096 ~chunks:2 in
      let bw = float_of_int k *. 8e9 in
      let t b = (run ~params:{ p with Params.mem_bw_bytes_per_s = b } progs).Metrics.cycles in
      t bw >= t (bw *. 2.0))

let tests =
  ( "engine-props",
    [
      Alcotest.test_case "more bandwidth never slower" `Quick test_more_bandwidth_never_slower;
      Alcotest.test_case "latency monotone" `Quick test_latency_increase_never_faster;
      Alcotest.test_case "noc penalty visible" `Quick test_noc_penalty_visible;
      Alcotest.test_case "jitter effect bounded" `Quick test_jitter_bounded_effect;
      Alcotest.test_case "overheads scale with chunks" `Quick test_overheads_scale_with_chunks;
      Alcotest.test_case "event limit enforced" `Quick test_event_limit_enforced;
      Alcotest.test_case "payload accounting" `Quick test_metrics_payload_accounting;
      QCheck_alcotest.to_alcotest prop_bandwidth_monotone;
    ] )
