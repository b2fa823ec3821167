open Sw_isa
open Sw_arch
open Sw_sim

let p = Params.default

let ideal = Config.ideal p

let fadd dst srcs = Instr.make Instr.Fadd ~dst srcs

let dma_get ?(tag = 0) ?(addr = 0) bytes =
  Program.Dma_issue { dir = Program.Get; accesses = [ Mem_req.contiguous ~addr ~bytes ]; tag }

(* hand-written programs reach the engine through its compile bridge *)
let compile_run cfg progs = Engine.run cfg (Engine.compile cfg progs)

let run_one prog = compile_run ideal [| prog |]

let test_single_transaction_latency () =
  (* Calibration: one 256B aligned DMA completes in l_base cycles. *)
  let m = run_one [| dma_get 256; Program.Dma_wait 0 |] in
  Alcotest.(check (float 1e-6)) "l_base" 220.0 m.Metrics.cycles;
  Alcotest.(check int) "one transaction" 1 m.Metrics.transactions

let test_multi_transaction_latency () =
  (* Calibration: n transactions complete in l_base + (n-1)*delta (Eq 11). *)
  let m = run_one [| dma_get (8 * 256); Program.Dma_wait 0 |] in
  Alcotest.(check (float 1e-6)) "l_base + 7*delta" (220.0 +. (7.0 *. 50.0)) m.Metrics.cycles;
  Alcotest.(check int) "8 transactions" 8 m.Metrics.transactions

let test_bandwidth_saturation () =
  (* 64 CPEs x 64 transactions: runtime is bandwidth-bound at
     trans_size/bytes_per_cycle cycles per transaction. *)
  let progs =
    Array.init 64 (fun i ->
        [| dma_get ~addr:(i * 16384) 16384; Program.Dma_wait 0 |])
  in
  let m = compile_run ideal progs in
  let total_trans = 64 * 64 in
  Alcotest.(check int) "transaction count" total_trans m.Metrics.transactions;
  let lower = float_of_int total_trans *. Params.cycles_per_transaction p in
  Alcotest.(check bool) "at least bandwidth-bound" true (m.Metrics.cycles >= lower);
  Alcotest.(check bool) "within 5% + base latency" true
    (m.Metrics.cycles <= (lower *. 1.05) +. 300.0);
  Alcotest.(check bool) "high utilization" true (Metrics.bandwidth_utilization m > 0.9)

let test_gload_latency () =
  let m = run_one [| Program.Gload { addr = 0; bytes = 8 } |] in
  Alcotest.(check (float 1e-6)) "one gload = l_base" 220.0 m.Metrics.cycles;
  Alcotest.(check int) "counted" 1 m.Metrics.gload_requests

let test_gloads_serialize () =
  let prog = Array.init 10 (fun i -> Program.Gload { addr = i * 4096; bytes = 8 }) in
  let m = run_one prog in
  Alcotest.(check (float 1e-6)) "blocking gloads sum" 2200.0 m.Metrics.cycles;
  Alcotest.(check (float 1e-6)) "gload wait" 2200.0 m.Metrics.gload_cycles

let test_compute_matches_schedule () =
  let block = [| fadd 1 [ 1; 0 ]; fadd 2 [ 2; 0 ] |] in
  let m = run_one [| Program.Compute { block; trips = 100 } |] in
  Alcotest.(check (float 1e-6)) "pure compute = static schedule"
    (Schedule.iterated_cycles p block ~trips:100)
    m.Metrics.cycles;
  Alcotest.(check (float 1e-6)) "comp metric" m.Metrics.cycles m.Metrics.comp_cycles

let test_async_dma_overlaps_compute () =
  (* DMA issued before a long compute is fully hidden. *)
  let block = [| fadd 1 [ 1; 0 ] |] in
  let trips = 10_000 in
  let compute_time = Schedule.iterated_cycles p block ~trips in
  let prog = [| dma_get 2048; Program.Compute { block; trips }; Program.Dma_wait 0 |] in
  let m = run_one prog in
  Alcotest.(check (float 1e-6)) "dma hidden" compute_time m.Metrics.cycles;
  Alcotest.(check (float 1e-6)) "no dma stall" 0.0 m.Metrics.dma_wait_cycles

let test_sync_dma_serializes () =
  let block = [| fadd 1 [ 1; 0 ] |] in
  let trips = 1_000 in
  let compute_time = Schedule.iterated_cycles p block ~trips in
  let prog = [| dma_get 2048; Program.Dma_wait 0; Program.Compute { block; trips } |] in
  let m = run_one prog in
  Alcotest.(check (float 1e-6)) "serial sum" (570.0 +. compute_time) m.Metrics.cycles

let test_repeat_equals_trips () =
  (* with zero loop overhead, Repeat of 1-trip computes = one multi-trip
     compute when once = steady (single ialu) *)
  let block = [| Instr.make Instr.Ialu ~dst:1 [] |] in
  let a = run_one [| Program.Repeat { trips = 5; body = [| Program.Compute { block; trips = 1 } |] } |] in
  let b = run_one [| Program.Compute { block; trips = 5 } |] in
  Alcotest.(check (float 1e-6)) "equal" b.Metrics.cycles a.Metrics.cycles

let test_determinism () =
  let cfg = Config.default p in
  let progs = Array.init 8 (fun i -> [| dma_get ~addr:(i * 8192) 4096; Program.Dma_wait 0 |]) in
  let m1 = compile_run cfg progs and m2 = compile_run cfg progs in
  Alcotest.(check (float 0.0)) "same makespan" m1.Metrics.cycles m2.Metrics.cycles;
  Alcotest.(check int) "same events" m1.Metrics.events m2.Metrics.events

let test_overheads_increase_time () =
  let prog = [| dma_get 256; Program.Dma_wait 0 |] in
  let m_ideal = compile_run ideal [| prog |] in
  let m_real = compile_run (Config.default p) [| prog |] in
  Alcotest.(check bool) "overheads cost cycles" true
    (m_real.Metrics.cycles > m_ideal.Metrics.cycles)

let test_multi_cg_routing () =
  let p2 = Params.with_cgs p 2 in
  let cfg = Config.ideal p2 in
  (* 8 consecutive blocks interleave across both controllers *)
  let m = compile_run cfg [| [| dma_get (8 * 256); Program.Dma_wait 0 |] |] in
  Alcotest.(check bool) "both MCs busy" true
    (Array.for_all (fun b -> b > 0.0) m.Metrics.mc_busy_cycles)

let test_multi_cg_more_bandwidth () =
  let mk ncg =
    let pn = Params.with_cgs p ncg in
    let progs =
      Array.init (Params.total_cpes pn) (fun i ->
          [| dma_get ~addr:(i * 32768) 32768; Program.Dma_wait 0 |])
    in
    let m = compile_run (Config.ideal pn) progs in
    (* per-CPE identical work; compare makespan *)
    m.Metrics.cycles
  in
  let t1 = mk 1 and t4 = mk 4 in
  (* 4x the CPEs and 4x bandwidth: similar makespan (within noc effects) *)
  Alcotest.(check bool) "scales with CGs" true (t4 < t1 *. 1.25)

let test_gstore_counts () =
  let m = run_one [| Program.Gstore { addr = 0; bytes = 8 } |] in
  Alcotest.(check int) "gstore counted as gload request" 1 m.Metrics.gload_requests

let test_rejects_invalid_program () =
  let bad = [| Program.Compute { block = [||]; trips = 1 } |] in
  match compile_run ideal [| bad |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_rejects_too_many_programs () =
  let progs = Array.make 65 [| Program.Gload { addr = 0; bytes = 8 } |] in
  match compile_run ideal progs with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for 65 programs on 64 CPEs"

let test_empty_program_finishes () =
  let m = compile_run ideal [| [||] |] in
  Alcotest.(check (float 1e-6)) "zero cycles" 0.0 m.Metrics.cycles

let test_strided_dma_transactions () =
  let access = Mem_req.strided ~addr:0 ~row_bytes:64 ~stride:1024 ~rows:4 in
  let prog = [| Program.Dma_issue { dir = Program.Get; accesses = [ access ]; tag = 0 }; Program.Dma_wait 0 |] in
  let m = run_one prog in
  Alcotest.(check int) "4 transactions for 4 rows" 4 m.Metrics.transactions;
  Alcotest.(check (float 1e-6)) "latency like 4-transaction request" (220.0 +. (3.0 *. 50.0))
    m.Metrics.cycles

let prop_more_cpes_never_faster_per_byte =
  (* with fixed total data, splitting across more CPEs cannot increase
     total transactions *)
  QCheck.Test.make ~name:"transaction count independent of split" ~count:30
    QCheck.(int_range 0 6)
    (fun k ->
      let n = 1 lsl k in
      let total = 64 * 1024 in
      let per = total / n in
      let progs =
        Array.init n (fun i -> [| dma_get ~addr:(i * per) per; Program.Dma_wait 0 |])
      in
      let m = compile_run ideal progs in
      m.Metrics.transactions = total / 256)

let tests =
  ( "engine",
    [
      Alcotest.test_case "single-transaction latency (calibration)" `Quick test_single_transaction_latency;
      Alcotest.test_case "multi-transaction latency (Eq 11)" `Quick test_multi_transaction_latency;
      Alcotest.test_case "bandwidth saturation" `Quick test_bandwidth_saturation;
      Alcotest.test_case "gload latency" `Quick test_gload_latency;
      Alcotest.test_case "gloads serialize" `Quick test_gloads_serialize;
      Alcotest.test_case "pure compute matches schedule" `Quick test_compute_matches_schedule;
      Alcotest.test_case "async DMA overlaps compute" `Quick test_async_dma_overlaps_compute;
      Alcotest.test_case "sync DMA serializes" `Quick test_sync_dma_serializes;
      Alcotest.test_case "repeat equals trips" `Quick test_repeat_equals_trips;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "overheads cost cycles" `Quick test_overheads_increase_time;
      Alcotest.test_case "multi-CG routing" `Quick test_multi_cg_routing;
      Alcotest.test_case "multi-CG bandwidth scaling" `Quick test_multi_cg_more_bandwidth;
      Alcotest.test_case "gstore counted" `Quick test_gstore_counts;
      Alcotest.test_case "invalid program rejected" `Quick test_rejects_invalid_program;
      Alcotest.test_case "too many programs rejected" `Quick test_rejects_too_many_programs;
      Alcotest.test_case "empty program" `Quick test_empty_program_finishes;
      Alcotest.test_case "strided DMA transactions" `Quick test_strided_dma_transactions;
      QCheck_alcotest.to_alcotest prop_more_cpes_never_faster_per_byte;
    ] )
