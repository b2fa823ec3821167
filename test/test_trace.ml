open Sw_sim
open Sw_isa
open Sw_arch

let p = Params.default

let ideal = Config.ideal p

let fadd dst srcs = Instr.make Instr.Fadd ~dst srcs

let dma_get ?(addr = 0) bytes =
  Program.Dma_issue { dir = Program.Get; accesses = [ Mem_req.contiguous ~addr ~bytes ]; tag = 0 }

(* hand-written programs reach the engine through its compile bridge *)
let compiled prog = Engine.compile ideal [| prog |]

let traced prog = Engine.run_traced ideal (compiled prog)

let test_compute_span () =
  let block = [| fadd 1 [ 1; 0 ] |] in
  let m, t = traced [| Program.Compute { block; trips = 100 } |] in
  match t with
  | [ s ] ->
      Alcotest.(check bool) "kind" true (s.Trace.kind = Trace.Compute);
      Alcotest.(check (float 1e-6)) "covers the run" m.Metrics.cycles (s.Trace.t1 -. s.Trace.t0)
  | _ -> Alcotest.failf "expected one span, got %d" (List.length t)

let test_dma_stall_span () =
  let _, t = traced [| dma_get 256; Program.Dma_wait 0 |] in
  match List.filter (fun s -> s.Trace.kind = Trace.Dma_stall) t with
  | [ s ] -> Alcotest.(check (float 1e-6)) "stall = l_base" 220.0 (s.Trace.t1 -. s.Trace.t0)
  | spans -> Alcotest.failf "expected one dma stall, got %d" (List.length spans)

let test_gload_span () =
  let _, t = traced [| Program.Gload { addr = 0; bytes = 8 } |] in
  match t with
  | [ s ] ->
      Alcotest.(check bool) "kind" true (s.Trace.kind = Trace.Gload_stall);
      Alcotest.(check (float 1e-6)) "latency" 220.0 (s.Trace.t1 -. s.Trace.t0)
  | _ -> Alcotest.fail "expected one span"

let test_hidden_dma_no_stall () =
  let block = [| fadd 1 [ 1; 0 ] |] in
  let _, t = traced [| dma_get 256; Program.Compute { block; trips = 1000 }; Program.Dma_wait 0 |] in
  Alcotest.(check int) "fully hidden dma records no stall" 0
    (List.length (List.filter (fun s -> s.Trace.kind = Trace.Dma_stall) t))

let test_totals () =
  let block = [| fadd 1 [ 1; 0 ] |] in
  let m, t =
    traced [| dma_get 2048; Program.Dma_wait 0; Program.Compute { block; trips = 100 } |]
  in
  Alcotest.(check (float 1e-6)) "compute total" m.Metrics.comp_cycles (Trace.total t Trace.Compute);
  Alcotest.(check (float 1e-6)) "dma total" m.Metrics.dma_wait_cycles (Trace.total t Trace.Dma_stall)

let test_run_and_run_traced_agree () =
  let prog = [| dma_get 4096; Program.Dma_wait 0; Program.Gload { addr = 0; bytes = 8 } |] in
  let m1 = Engine.run ideal (compiled prog) in
  let m2, _ = Engine.run_traced ideal (compiled prog) in
  Alcotest.(check (float 1e-9)) "identical timing" m1.Metrics.cycles m2.Metrics.cycles

let test_render () =
  let block = [| fadd 1 [ 1; 0 ] |] in
  let m, t =
    traced [| dma_get 4096; Program.Dma_wait 0; Program.Compute { block; trips = 500 } |]
  in
  let s = Trace.render ~width:40 ~makespan:m.Metrics.cycles t in
  Alcotest.(check bool) "has a D cell" true (String.contains s 'D');
  Alcotest.(check bool) "has a C cell" true (String.contains s 'C');
  let first_line = List.hd (String.split_on_char '\n' s) in
  Alcotest.(check bool) "row width as requested" true (String.length first_line >= 40)

let test_render_empty () =
  Alcotest.(check string) "empty trace" "(empty trace)\n" (Trace.render ~makespan:0.0 [])

let test_render_degenerate () =
  let spans = [ { Trace.cpe = 0; kind = Trace.Compute; t0 = 0.0; t1 = 400.0 } ] in
  Alcotest.(check string) "empty spans, positive makespan" "(empty trace)\n"
    (Trace.render ~makespan:1000.0 []);
  List.iter
    (fun makespan ->
      Alcotest.(check string)
        (Printf.sprintf "non-renderable makespan %f" makespan)
        "(empty trace)\n"
        (Trace.render ~makespan spans))
    [ 0.0; -5.0; Float.nan; Float.infinity ]

let test_render_near_zero_makespan () =
  (* a makespan of 1e-300 must not overflow int_of_float in column math *)
  let spans = [ { Trace.cpe = 0; kind = Trace.Compute; t0 = 0.0; t1 = 1e-300 } ] in
  let s = Trace.render ~width:20 ~makespan:1e-300 spans in
  Alcotest.(check bool) "renders something" true (String.length s > 0);
  Alcotest.(check bool) "compute cell present" true (String.contains s 'C')

let test_n_cpes_and_per_cpe_totals () =
  Alcotest.(check int) "empty trace has no cpes" 0 (Trace.n_cpes []);
  let spans =
    [
      { Trace.cpe = 0; kind = Trace.Compute; t0 = 0.0; t1 = 10.0 };
      { Trace.cpe = 0; kind = Trace.Compute; t0 = 20.0; t1 = 25.0 };
      { Trace.cpe = 2; kind = Trace.Dma_stall; t0 = 5.0; t1 = 9.0 };
    ]
  in
  Alcotest.(check int) "indexed by largest cpe" 3 (Trace.n_cpes spans);
  let comp = Trace.per_cpe_totals spans Trace.Compute in
  Alcotest.(check int) "array length = n_cpes" 3 (Array.length comp);
  Alcotest.(check (float 1e-9)) "cpe 0 compute" 15.0 comp.(0);
  Alcotest.(check (float 1e-9)) "cpe 1 idle" 0.0 comp.(1);
  let dma = Trace.per_cpe_totals spans Trace.Dma_stall in
  Alcotest.(check (float 1e-9)) "cpe 2 dma" 4.0 dma.(2)

let test_busy_fraction () =
  let block = [| fadd 1 [ 1; 0 ] |] in
  let m, t = traced [| Program.Compute { block; trips = 100 } |] in
  Alcotest.(check (float 1e-6)) "fully busy" 1.0
    (Trace.busy_fraction t ~cpe:0 ~makespan:m.Metrics.cycles)

let tests =
  ( "trace",
    [
      Alcotest.test_case "compute span" `Quick test_compute_span;
      Alcotest.test_case "dma stall span" `Quick test_dma_stall_span;
      Alcotest.test_case "gload span" `Quick test_gload_span;
      Alcotest.test_case "hidden dma has no stall span" `Quick test_hidden_dma_no_stall;
      Alcotest.test_case "totals match metrics" `Quick test_totals;
      Alcotest.test_case "tracing does not change timing" `Quick test_run_and_run_traced_agree;
      Alcotest.test_case "render" `Quick test_render;
      Alcotest.test_case "render empty" `Quick test_render_empty;
      Alcotest.test_case "render degenerate inputs" `Quick test_render_degenerate;
      Alcotest.test_case "render near-zero makespan" `Quick test_render_near_zero_makespan;
      Alcotest.test_case "n_cpes and per-cpe totals" `Quick test_n_cpes_and_per_cpe_totals;
      Alcotest.test_case "busy fraction" `Quick test_busy_fraction;
    ] )
