(* Fault injection: configuration validation, deterministic fault
   planning, engine-level retry/backoff/straggler/throttle semantics,
   and the bit-identical-replay property that makes faulty runs exactly
   as reproducible as fault-free ones. *)

module Config = Sw_sim.Config
module Engine = Sw_sim.Engine
module Fault = Sw_fault.Fault

let p = Sw_arch.Params.default

let config = Config.default p

let entry name = Sw_workloads.Registry.find_exn name

let lowered_of name scale variant =
  let kernel = (entry name).Sw_workloads.Registry.build ~scale in
  Sw_swacc.Lower.lower_exn p kernel variant

let programs_of name scale =
  let e = entry name in
  (lowered_of name scale e.Sw_workloads.Registry.variant).Sw_swacc.Lowered.programs

(* ------------------------------------------------------------------ *)
(* Config validation (satellite: typed Invalid_config at construction) *)

let expect_invalid label c =
  match Config.validate c with
  | Error msg -> Alcotest.(check bool) (label ^ ": message non-empty") true (String.length msg > 0)
  | Ok _ -> Alcotest.fail (label ^ ": expected Error")

let test_validate_rejects_bad_machine () =
  let bad_bw =
    { config with Config.params = { p with Sw_arch.Params.mem_bw_bytes_per_s = 0.0 } }
  in
  expect_invalid "zero bandwidth" bad_bw;
  let bad_lat = { config with Config.params = { p with Sw_arch.Params.l_base = -1 } } in
  expect_invalid "negative latency" bad_lat;
  let bad_cpes = { config with Config.params = { p with Sw_arch.Params.cpes_per_cg = 0 } } in
  expect_invalid "zero CPEs" bad_cpes;
  let bad_overhead = { config with Config.dma_issue_cost = -1 } in
  expect_invalid "negative overhead" bad_overhead

let test_validate_rejects_bad_faults () =
  let with_faults f = { config with Config.faults = f } in
  let ok = Config.no_faults in
  expect_invalid "fail prob >= 1" (with_faults { ok with Config.dma_fail_prob = 1.0 });
  expect_invalid "negative fail prob" (with_faults { ok with Config.dma_fail_prob = -0.1 });
  expect_invalid "fail prob without retry budget"
    (with_faults { ok with Config.dma_fail_prob = 0.5; dma_max_retries = 0 });
  expect_invalid "straggler speedup"
    (with_faults { ok with Config.stragglers = [ (0, 0.5) ] });
  expect_invalid "negative straggler id"
    (with_faults { ok with Config.stragglers = [ (-1, 2.0) ] });
  expect_invalid "throttle factor > 1"
    (with_faults
       {
         ok with
         Config.mc_throttles =
           [ (0, { Config.from_cycle = 0.0; until_cycle = 10.0; bw_factor = 1.5 }) ];
       });
  expect_invalid "empty throttle window"
    (with_faults
       {
         ok with
         Config.mc_throttles =
           [ (0, { Config.from_cycle = 10.0; until_cycle = 10.0; bw_factor = 0.5 }) ];
       })

let test_validated_raises_and_engine_guards () =
  let bad = { config with Config.params = { p with Sw_arch.Params.mem_bw_bytes_per_s = 0.0 } } in
  (match Config.validated bad with
  | exception Config.Invalid_config msg ->
      Alcotest.(check bool) "names the field" true (String.length msg > 0)
  | _ -> Alcotest.fail "expected Invalid_config");
  match Engine.run bad (programs_of "kmeans" 0.25) with
  | exception Config.Invalid_config _ -> ()
  | _ -> Alcotest.fail "engine accepted an invalid config"

(* A flat program bakes in the few parameters its arrays depend on: the
   engine refuses a mismatch, naming the field. *)
let test_baked_params_mismatch_refused () =
  let other = { config with Config.params = { p with Sw_arch.Params.trans_size = 128 } } in
  match Engine.run other (programs_of "kmeans" 0.25) with
  | exception Invalid_argument msg ->
      let field = "trans_size" in
      let names =
        List.exists
          (fun i -> String.sub msg i (String.length field) = field)
          (List.init (String.length msg - String.length field + 1) Fun.id)
      in
      Alcotest.(check bool) ("names the field: " ^ msg) true names
  | _ -> Alcotest.fail "engine ran programs built for another transaction size"

(* Everything a fault plan perturbs is read at run time, so the plan
   runs the nominal lowering and measures exactly what the reference
   engine measures on the reference trees under the plan. *)
let test_plan_runs_shared_lowering () =
  let plan = Fault.plan ~spec:Fault.harsh ~seed:3 config in
  let pp = plan.Config.params in
  Alcotest.(check bool) "plan jitters latency or bandwidth" true
    (pp.Sw_arch.Params.l_base <> p.Sw_arch.Params.l_base
    || pp.Sw_arch.Params.mem_bw_bytes_per_s <> p.Sw_arch.Params.mem_bw_bytes_per_s);
  let e = entry "kmeans" in
  let kernel = e.Sw_workloads.Registry.build ~scale:0.25 in
  let items = Result.get_ok (Sw_swacc.Lower_ref.lower pp kernel e.Sw_workloads.Registry.variant) in
  Alcotest.(check bool) "shared lowering = reference under the plan" true
    (Engine.run plan (programs_of "kmeans" 0.25) = Sw_sim.Engine_ref.run plan items)

let test_valid_config_roundtrips () =
  match Config.validate config with
  | Ok c -> Alcotest.(check bool) "unchanged" true (c = config)
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Fault planning *)

let test_plan_deterministic () =
  let a = Fault.plan ~spec:Fault.harsh ~seed:7 config in
  let b = Fault.plan ~spec:Fault.harsh ~seed:7 config in
  Alcotest.(check bool) "same (spec, seed, config) => same plan" true (a = b);
  let c = Fault.plan ~spec:Fault.harsh ~seed:8 config in
  Alcotest.(check bool) "different seed => different plan" true (a <> c)

let test_plan_none_is_identity_plus_seed () =
  let a = Fault.plan ~spec:Fault.none ~seed:3 config in
  Alcotest.(check bool) "no live fault channel" false (Config.faults_active a.Config.faults);
  Alcotest.(check bool) "machine parameters untouched" true (a.Config.params = config.Config.params)

let test_plan_activates_channels () =
  let a = Fault.plan ~spec:Fault.mild ~seed:1 config in
  Alcotest.(check bool) "faults active" true (Config.faults_active a.Config.faults);
  Alcotest.(check int) "seed threaded" 1 a.Config.faults.Config.fault_seed;
  Alcotest.(check int) "stragglers placed" Fault.mild.Fault.n_stragglers
    (List.length a.Config.faults.Config.stragglers);
  Alcotest.(check int) "throttles placed" Fault.mild.Fault.n_throttles
    (List.length a.Config.faults.Config.mc_throttles);
  (* distinct straggler ids *)
  let h = Fault.plan ~spec:Fault.harsh ~seed:1 config in
  let ids = List.map fst h.Config.faults.Config.stragglers in
  Alcotest.(check int) "straggler ids distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  match Config.validate a with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("plan produced invalid config: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Engine semantics under faults *)

let high_fail_config =
  {
    config with
    Config.faults =
      {
        Config.no_faults with
        Config.fault_seed = 11;
        dma_fail_prob = 0.5;
        dma_max_retries = 4;
        dma_backoff_cycles = 32;
      };
  }

let test_retries_surface_in_metrics_and_trace () =
  let programs = programs_of "kmeans" 0.25 in
  let m, _, _, retries = Engine.run_traced_full high_fail_config programs in
  Alcotest.(check bool) "retries observed" true (m.Sw_sim.Metrics.retries > 0);
  Alcotest.(check bool) "backoff cycles billed" true (m.Sw_sim.Metrics.backoff_cycles > 0.0);
  Alcotest.(check int) "trace records every retry" m.Sw_sim.Metrics.retries
    (List.length retries);
  List.iter
    (fun (r : Sw_sim.Trace.dma_retry) ->
      Alcotest.(check bool) "attempt counts from 1" true (r.Sw_sim.Trace.rt_attempt >= 1);
      Alcotest.(check bool) "attempt within budget" true
        (r.Sw_sim.Trace.rt_attempt <= high_fail_config.Config.faults.Config.dma_max_retries);
      Alcotest.(check bool) "backoff moves time forward" true
        (r.Sw_sim.Trace.t_retry > r.Sw_sim.Trace.t_fail))
    retries;
  (* faults delay, never deadlock: the run still finishes and is slower *)
  let nominal = Engine.run config programs in
  Alcotest.(check bool) "faulty run is slower" true
    (m.Sw_sim.Metrics.cycles > nominal.Sw_sim.Metrics.cycles)

let test_fault_free_run_unchanged_by_seed () =
  (* the fault PRNG must not leak into fault-free runs: only fault_seed
     differs, and no channel is live *)
  let programs = programs_of "nbody" 0.25 in
  let a = Engine.run config programs in
  let with_seed =
    { config with Config.faults = { Config.no_faults with Config.fault_seed = 999 } }
  in
  let b = Engine.run with_seed programs in
  Alcotest.(check bool) "identical metrics" true (a = b)

let test_straggler_slows_run () =
  let programs = programs_of "nbody" 0.25 in
  let nominal = Engine.run config programs in
  let slow =
    {
      config with
      Config.faults = { Config.no_faults with Config.stragglers = [ (0, 2.0) ] };
    }
  in
  let m = Engine.run slow programs in
  Alcotest.(check bool) "straggler extends the makespan" true
    (m.Sw_sim.Metrics.cycles > nominal.Sw_sim.Metrics.cycles);
  Alcotest.(check int) "no retries from stragglers" 0 m.Sw_sim.Metrics.retries

let test_throttle_slows_memory_bound_run () =
  let programs = programs_of "kmeans" 0.25 in
  let nominal = Engine.run config programs in
  let window = { Config.from_cycle = 0.0; until_cycle = 1e9; bw_factor = 0.25 } in
  let throttled =
    {
      config with
      Config.faults =
        {
          Config.no_faults with
          Config.mc_throttles = List.init p.Sw_arch.Params.n_cgs (fun mc -> (mc, window));
        };
    }
  in
  let m = Engine.run throttled programs in
  Alcotest.(check bool) "quartered bandwidth extends the makespan" true
    (m.Sw_sim.Metrics.cycles > nominal.Sw_sim.Metrics.cycles)

(* ------------------------------------------------------------------ *)
(* Determinism property: a faulty run replays bit-identically — same
   Metrics.t, same spans, same retry trail — however many times and at
   whatever pool fan-out the surrounding sweep uses. *)

let prop_fault_runs_bit_identical =
  let entries = [| "kmeans"; "nbody"; "lud"; "bfs" |] in
  QCheck.Test.make ~name:"faulty runs replay bit-identically" ~count:20
    QCheck.(
      triple (int_range 0 (Array.length entries - 1)) (int_range 1 1000) (int_range 0 2))
    (fun (ei, seed, severity) ->
      let spec = List.nth [ Fault.none; Fault.mild; Fault.harsh ] severity in
      let plan = Fault.plan ~spec ~seed config in
      let programs = programs_of entries.(ei) 0.25 in
      let a = Engine.run_traced_full plan programs in
      let b = Engine.run_traced_full plan programs in
      a = b)

let test_tuned_sweep_under_faults_pool_invariant () =
  let e = entry "kmeans" in
  let kernel = e.Sw_workloads.Registry.build ~scale:0.25 in
  let points =
    Sw_tuning.Space.enumerate ~grains:e.Sw_workloads.Registry.grains
      ~unrolls:e.Sw_workloads.Registry.unrolls ()
  in
  let plan = Fault.plan ~spec:Fault.harsh ~seed:5 config in
  let run pool_opt =
    let o =
      Sw_tuning.Tuner.tune_exn ~backend:Sw_backend.Backend.simulator ?pool:pool_opt plan kernel
        ~points
    in
    (o.Sw_tuning.Tuner.best, o.Sw_tuning.Tuner.best_cycles, o.Sw_tuning.Tuner.machine_time_us)
  in
  let baseline = run None in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "faulty sweep, %d domains" n)
        true
        (run (Some (Sw_util.Pool.create ~size:n ())) = baseline))
    [ 1; 4 ]

let tests =
  ( "fault",
    [
      Alcotest.test_case "validate rejects bad machine" `Quick test_validate_rejects_bad_machine;
      Alcotest.test_case "validate rejects bad faults" `Quick test_validate_rejects_bad_faults;
      Alcotest.test_case "validated raises; engine guards" `Quick
        test_validated_raises_and_engine_guards;
      Alcotest.test_case "baked params mismatch refused" `Quick test_baked_params_mismatch_refused;
      Alcotest.test_case "plan runs the shared lowering" `Quick test_plan_runs_shared_lowering;
      Alcotest.test_case "valid config round-trips" `Quick test_valid_config_roundtrips;
      Alcotest.test_case "plan deterministic" `Quick test_plan_deterministic;
      Alcotest.test_case "plan none = identity" `Quick test_plan_none_is_identity_plus_seed;
      Alcotest.test_case "plan activates channels" `Quick test_plan_activates_channels;
      Alcotest.test_case "retries in metrics and trace" `Quick
        test_retries_surface_in_metrics_and_trace;
      Alcotest.test_case "fault-free run ignores seed" `Quick
        test_fault_free_run_unchanged_by_seed;
      Alcotest.test_case "straggler slows run" `Quick test_straggler_slows_run;
      Alcotest.test_case "throttle slows run" `Quick test_throttle_slows_memory_bound_run;
      QCheck_alcotest.to_alcotest prop_fault_runs_bit_identical;
      Alcotest.test_case "faulty sweep pool-invariant" `Slow
        test_tuned_sweep_under_faults_pool_invariant;
    ] )
