(* The cost-backend layer: equivalence of each backend with the raw
   estimator it wraps, bit-identical pooled searches, the memoizer's
   accounting, the registry, and the hybrid's bracketing property. *)

module Backend = Sw_backend.Backend

let p = Sw_arch.Params.default

let config = Sw_sim.Config.default p

let pool n = Sw_util.Pool.create ~size:n ()

let entry name = Sw_workloads.Registry.find_exn name

let kernel_of name scale = (entry name).Sw_workloads.Registry.build ~scale

(* ------------------------------------------------------------------ *)
(* Equivalence with the raw estimators *)

let test_static_model_matches_predict () =
  let e = entry "kmeans" in
  let kernel = kernel_of "kmeans" 0.25 in
  let v = e.Sw_workloads.Registry.variant in
  let expected =
    match Sw_swacc.Lower.summarize p kernel v with
    | Ok s -> (Swpm.Predict.run p s).Swpm.Predict.t_total
    | Error msg -> failwith msg
  in
  let verdict = Result.get_ok (Backend.assess Backend.static_model config kernel v) in
  Alcotest.(check (float 0.0)) "cycles = Predict.run" expected verdict.Backend.cycles;
  Alcotest.(check (float 0.0)) "no machine time" 0.0
    verdict.Backend.cost.Backend.machine_us;
  Alcotest.(check bool) "carries the model breakdown" true
    (verdict.Backend.breakdown <> None)

let test_simulator_matches_engine () =
  let e = entry "lud" in
  let kernel = kernel_of "lud" 0.5 in
  let v = e.Sw_workloads.Registry.variant in
  let lowered = Sw_swacc.Lower.lower_exn p kernel v in
  let expected = Sw_backend.Machine.cycles config lowered in
  let verdict = Result.get_ok (Backend.assess Backend.simulator config kernel v) in
  Alcotest.(check (float 0.0)) "cycles = Engine.run" expected verdict.Backend.cycles;
  Alcotest.(check (float 0.0)) "machine time = execution time"
    (Sw_util.Units.cycles_to_us ~freq_hz:p.Sw_arch.Params.freq_hz expected)
    verdict.Backend.cost.Backend.machine_us

let test_roofline_matches_analyze () =
  let e = entry "nbody" in
  let kernel = kernel_of "nbody" 0.5 in
  let v = e.Sw_workloads.Registry.variant in
  let expected =
    match Sw_swacc.Lower.summarize p kernel v with
    | Ok s -> (Swpm.Roofline.analyze p s).Swpm.Roofline.predicted_cycles
    | Error msg -> failwith msg
  in
  let verdict = Result.get_ok (Backend.assess Backend.roofline config kernel v) in
  Alcotest.(check (float 0.0)) "cycles = Roofline.analyze" expected verdict.Backend.cycles

let test_infeasible_variant_rejected () =
  let kernel = kernel_of "lud" 1.0 in
  let v = { Sw_swacc.Kernel.grain = 4096; unroll = 1; active_cpes = 64; double_buffer = false } in
  List.iter
    (fun backend ->
      match Backend.assess backend config kernel v with
      | Error { Backend.backend = b; reason } ->
          Alcotest.(check string) "rejection names its backend" (Backend.name backend) b;
          Alcotest.(check bool) "reason non-empty" true (String.length reason > 0)
      | Ok _ -> Alcotest.fail (Backend.name backend ^ ": expected rejection"))
    [ Backend.static_model; Backend.simulator; Backend.hybrid (); Backend.roofline ]

(* Every closed-form backend is its layers and nothing else: over each
   registry kernel's tuning space (both buffering settings), a verdict's
   cycles and breakdown are bit-equal to calling Lower.summarize and the
   estimator directly, and a rejection carries summarize's own reason. *)
let test_backends_equal_direct_layers () =
  let hybrid = Backend.hybrid () in
  (* the hybrid's profile, chosen as it documents: the first lowerable
     grain of 64/32/.../1 at unroll 1 *)
  let calibration kernel active_cpes =
    match
      List.find_map
        (fun grain ->
          Result.to_option
            (Sw_swacc.Lower.lower p kernel
               { Sw_swacc.Kernel.grain; unroll = 1; active_cpes; double_buffer = false }))
        [ 64; 32; 16; 8; 4; 2; 1 ]
    with
    | Some lowered -> Backend.calibrate config lowered
    | None -> Swpm.Hybrid.no_calibration
  in
  let checked = ref 0 and rejected = ref 0 in
  List.iter
    (fun (e : Sw_workloads.Registry.entry) ->
      let kernel = e.Sw_workloads.Registry.build ~scale:1.0 in
      let points =
        Sw_tuning.Space.enumerate ~grains:e.Sw_workloads.Registry.grains
          ~unrolls:e.Sw_workloads.Registry.unrolls ~double_buffers:[ false; true ] ()
      in
      List.iter
        (fun pt ->
          let v = Sw_tuning.Space.to_variant pt ~active_cpes:64 in
          let label =
            Printf.sprintf "%s g%d u%d db%b" e.Sw_workloads.Registry.name v.Sw_swacc.Kernel.grain
              v.Sw_swacc.Kernel.unroll v.Sw_swacc.Kernel.double_buffer
          in
          let expect backend direct =
            incr checked;
            match (Sw_swacc.Lower.summarize p kernel v, Backend.assess backend config kernel v) with
            | Ok s, Ok verdict ->
                let cycles, breakdown = direct s in
                Alcotest.(check bool) (label ^ " cycles") true
                  (Int64.bits_of_float cycles = Int64.bits_of_float verdict.Backend.cycles);
                Alcotest.(check bool) (label ^ " breakdown") true
                  (breakdown = verdict.Backend.breakdown)
            | Error reason, Error inf ->
                incr rejected;
                Alcotest.(check string) (label ^ " reason") reason inf.Backend.reason;
                Alcotest.(check string) (label ^ " backend") (Backend.name backend)
                  inf.Backend.backend
            | Ok _, Error _ | Error _, Ok _ -> Alcotest.fail (label ^ ": feasibility differs")
          in
          let model s =
            let pr = Swpm.Predict.run p s in
            (pr.Swpm.Predict.t_total, Some pr)
          in
          expect Backend.static_model model;
          expect Backend.roofline (fun s ->
              ((Swpm.Roofline.analyze p s).Swpm.Roofline.predicted_cycles, None));
          expect hybrid (fun s ->
              if s.Sw_swacc.Lowered.gload_count = 0 then model s
              else
                let calibration = calibration kernel v.Sw_swacc.Kernel.active_cpes in
                let pr = Swpm.Hybrid.predict p s ~calibration in
                (pr.Swpm.Predict.t_total, Some pr)))
        points)
    Sw_workloads.Registry.all;
  Alcotest.(check bool) "some points are rejected" true (!rejected > 0 && !rejected < !checked)

(* ------------------------------------------------------------------ *)
(* Pre-refactor equivalence: the backend-driven tuner and Fig 6 rows
   must equal the hand-rolled search at pool sizes 1 and 4. *)

let hand_rolled_static_search kernel points =
  (* the pre-backend static tuner, inlined: summarize + Predict, argmin
     with strict < in enumeration order *)
  let scored =
    List.filter_map
      (fun (pt : Sw_tuning.Space.point) ->
        let v = Sw_tuning.Space.to_variant pt ~active_cpes:64 in
        match Sw_swacc.Lower.summarize p kernel v with
        | Error _ -> None
        | Ok s -> Some (pt, (Swpm.Predict.run p s).Swpm.Predict.t_total))
      points
  in
  match scored with
  | [] -> None
  | (p0, s0) :: rest ->
      Some
        (fst
           (List.fold_left
              (fun (bp, bs) (pt, s) -> if s < bs then (pt, s) else (bp, bs))
              (p0, s0) rest))

let test_tuner_matches_hand_rolled_search () =
  let e = entry "kmeans" in
  let kernel = kernel_of "kmeans" 0.25 in
  let points =
    Sw_tuning.Space.enumerate ~grains:e.Sw_workloads.Registry.grains
      ~unrolls:e.Sw_workloads.Registry.unrolls ()
  in
  let expected_best =
    match hand_rolled_static_search kernel points with
    | Some pt -> Sw_tuning.Space.to_variant pt ~active_cpes:64
    | None -> Alcotest.fail "search space unexpectedly empty"
  in
  List.iter
    (fun pool_opt ->
      let o =
        Sw_tuning.Tuner.tune_exn ~backend:Backend.static_model ?pool:pool_opt config kernel
          ~points
      in
      Alcotest.(check bool) "same pick as the pre-backend tuner" true
        (o.Sw_tuning.Tuner.best = expected_best))
    [ None; Some (pool 1); Some (pool 4) ]

let test_table2_rows_pool_invariant () =
  let baseline = Sw_experiments.Table2.run ~scale:0.25 () in
  List.iter
    (fun n ->
      let rows = Sw_experiments.Table2.run ~scale:0.25 ~pool:(pool n) () in
      List.iter2
        (fun (a : Sw_experiments.Table2.row) (b : Sw_experiments.Table2.row) ->
          Alcotest.(check string) "kernel" a.Sw_experiments.Table2.name b.Sw_experiments.Table2.name;
          Alcotest.(check bool) "static pick" true
            (a.static.Sw_tuning.Tuner.best = b.static.Sw_tuning.Tuner.best);
          Alcotest.(check bool) "empirical pick" true
            (a.empirical.Sw_tuning.Tuner.best = b.empirical.Sw_tuning.Tuner.best);
          Alcotest.(check (float 0.0)) "static best cycles" a.static.Sw_tuning.Tuner.best_cycles
            b.static.Sw_tuning.Tuner.best_cycles;
          Alcotest.(check (float 0.0))
            "empirical machine time" a.empirical.Sw_tuning.Tuner.machine_time_us
            b.empirical.Sw_tuning.Tuner.machine_time_us)
        baseline rows)
    [ 1; 4 ]

let test_fig6_rows_pool_invariant () =
  let baseline = Sw_experiments.Fig6.run ~scale:0.25 () in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "fig6 rows, %d domains" n)
        true
        (Sw_experiments.Fig6.run ~scale:0.25 ~pool:(pool n) () = baseline))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Memoizer *)

let test_memo_hit_miss_accounting () =
  let memo = Backend.memoize Backend.static_model in
  let b = Backend.memoized memo in
  let e = entry "kmeans" in
  let kernel = kernel_of "kmeans" 0.25 in
  let v = e.Sw_workloads.Registry.variant in
  let v2 = { v with Sw_swacc.Kernel.unroll = v.Sw_swacc.Kernel.unroll + 1 } in
  let first = Result.get_ok (Backend.assess b config kernel v) in
  Alcotest.(check int) "one miss" 1 (Backend.memo_misses memo);
  Alcotest.(check int) "no hits yet" 0 (Backend.memo_hits memo);
  let second = Result.get_ok (Backend.assess b config kernel v) in
  Alcotest.(check int) "second is a hit" 1 (Backend.memo_hits memo);
  Alcotest.(check (float 0.0)) "same cycles" first.Backend.cycles second.Backend.cycles;
  ignore (Backend.assess b config kernel v2);
  Alcotest.(check int) "different variant misses" 2 (Backend.memo_misses memo);
  Backend.memo_clear memo;
  ignore (Backend.assess b config kernel v);
  Alcotest.(check int) "cleared table misses again" 3 (Backend.memo_misses memo);
  (* over the simulator a miss bills the run and a hit bills nothing *)
  let sim = Backend.memoized (Backend.memoize Backend.simulator) in
  let miss = Result.get_ok (Backend.assess sim config kernel v) in
  let hit = Result.get_ok (Backend.assess sim config kernel v) in
  Alcotest.(check bool) "miss bills machine time" true (miss.Backend.cost.Backend.machine_us > 0.0);
  Alcotest.(check bool) "miss bills events" true (miss.Backend.cost.Backend.machine_events > 0);
  Alcotest.(check (float 0.0)) "hit bills no machine time" 0.0 hit.Backend.cost.Backend.machine_us;
  Alcotest.(check int) "hit bills no events" 0 hit.Backend.cost.Backend.machine_events;
  Alcotest.(check (float 0.0)) "hit has the miss's cycles" miss.Backend.cycles hit.Backend.cycles

let test_memo_caches_infeasibility () =
  let memo = Backend.memoize Backend.static_model in
  let b = Backend.memoized memo in
  let kernel = kernel_of "lud" 1.0 in
  let v = { Sw_swacc.Kernel.grain = 4096; unroll = 1; active_cpes = 64; double_buffer = false } in
  (match Backend.assess b config kernel v with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected rejection");
  (match Backend.assess b config kernel v with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected cached rejection");
  Alcotest.(check int) "rejection cached" 1 (Backend.memo_hits memo);
  Alcotest.(check int) "computed once" 1 (Backend.memo_misses memo)

let test_memo_composes_with_pool () =
  let memo = Backend.memoize Backend.static_model in
  let b = Backend.memoized memo in
  let e = entry "kmeans" in
  let kernel = kernel_of "kmeans" 0.25 in
  let points =
    Sw_tuning.Space.enumerate ~grains:e.Sw_workloads.Registry.grains
      ~unrolls:e.Sw_workloads.Registry.unrolls ()
  in
  let o1 = Sw_tuning.Tuner.tune_exn ~backend:b ~pool:(pool 4) config kernel ~points in
  let misses_after_first = Backend.memo_misses memo in
  let o2 = Sw_tuning.Tuner.tune_exn ~backend:b ~pool:(pool 4) config kernel ~points in
  Alcotest.(check bool) "same pick through the memo" true
    (o1.Sw_tuning.Tuner.best = o2.Sw_tuning.Tuner.best);
  Alcotest.(check int) "second search computes nothing new" misses_after_first
    (Backend.memo_misses memo);
  Alcotest.(check bool) "second search served from cache" true
    (Backend.memo_hits memo >= List.length points)

(* Budgeted queries bypass the table: a warm memo answers a cutoff the
   way the bare backend does, never with the cached full verdict. *)
let test_memo_budgeted_queries_go_inner () =
  let memo = Backend.memoize Backend.simulator in
  let b = Backend.memoized memo in
  let kernel = kernel_of "kmeans" 0.25 in
  let v = (entry "kmeans").Sw_workloads.Registry.variant in
  let full = Result.get_ok (Backend.assess b config kernel v) in
  let cutoff = full.Backend.cycles /. 2.0 in
  let bare = Backend.assess_budget ~cutoff Backend.simulator config kernel v in
  let warm = Backend.assess_budget ~cutoff b config kernel v in
  Alcotest.(check bool) "cut off, as without the memo" true
    (match warm with Backend.Cut_off _ -> warm = bare | _ -> false);
  (* a budget the run fits in gets the full verdict at its full cost *)
  Alcotest.(check bool) "unbounded cutoff: the full verdict" true
    (Backend.assess_budget ~cutoff:infinity b config kernel v = Backend.Assessed full);
  Alcotest.(check int) "budgeted queries are misses" 3 (Backend.memo_misses memo);
  Alcotest.(check int) "never hits" 0 (Backend.memo_hits memo)

(* ------------------------------------------------------------------ *)
(* The machine doorway's result memo *)

module Machine = Sw_backend.Machine

let engine_result = function
  | Sw_sim.Engine.Finished m -> `Finished m
  | Sw_sim.Engine.Cutoff { at; events } -> `Cutoff (at, events)

(* Differential: for random registry kernels, variants, jitter seeds and
   fault plans, budgeted queries on one warm lowering, in a random
   order, answer exactly what the engine answers on a fresh lowering —
   including cutoffs at exactly the last event's clock, just below it
   and at the makespan, and event budgets of [events] and [events - 1].
   And the memo must really answer: after the first finished run of a
   configuration, every later query that finishes is a hit and every
   query that is cut off is a miss. *)
let prop_machine_memo_exact =
  let entries = Array.of_list Sw_workloads.Registry.all in
  QCheck.Test.make ~name:"machine memo = engine on a fresh lowering" ~count:12
    QCheck.(
      quad
        (int_range 0 (Array.length entries - 1))
        (pair (int_range 0 3) (int_range 1 4))
        (pair small_nat small_nat) int)
    (fun (ei, (gi, unroll), (seed, fault_seed), order) ->
      let e = entries.(ei) in
      let kernel = e.Sw_workloads.Registry.build ~scale:0.25 in
      let grain = List.nth [ 8; 16; 32; 64 ] gi in
      let v = { Sw_swacc.Kernel.grain; unroll; active_cpes = 64; double_buffer = false } in
      match (Sw_swacc.Lower.lower p kernel v, Sw_swacc.Lower.lower p kernel v) with
      | Error _, _ | _, Error _ -> QCheck.assume_fail () (* infeasible variant: vacuous *)
      | Ok warm, Ok fresh ->
          let configs =
            [
              { config with Sw_sim.Config.seed };
              Sw_fault.Fault.plan ~spec:Sw_fault.Fault.mild ~seed:fault_seed config;
            ]
          in
          let queries =
            List.concat_map
              (fun c ->
                let m = Sw_sim.Engine.run c fresh.Sw_swacc.Lowered.programs in
                let last = m.Sw_sim.Metrics.last_event_at and n = m.Sw_sim.Metrics.events in
                List.map
                  (fun (cutoff, budget) -> (c, cutoff, budget))
                  [
                    (None, None);
                    (Some last, None);
                    (Some (Float.pred last), None);
                    (Some m.Sw_sim.Metrics.cycles, None);
                    (None, Some n);
                    (None, Some (n - 1));
                    (Some last, Some n);
                  ])
              configs
          in
          let rng = Random.State.make [| order |] in
          let queries =
            List.map snd
              (List.sort compare
                 (List.map (fun q -> (Random.State.bits rng, q)) queries))
          in
          let h0, m0 = Machine.cache_stats () in
          let stored = Hashtbl.create 2 in
          let expected_hits = ref 0 in
          let agree =
            List.for_all
              (fun (c, cutoff, event_budget) ->
                let expected =
                  engine_result
                    (Sw_sim.Engine.run_budget ?cutoff ?event_budget c
                       fresh.Sw_swacc.Lowered.programs)
                in
                (match expected with
                | `Finished _ ->
                    if Hashtbl.mem stored c then incr expected_hits
                    else Hashtbl.replace stored c ()
                | `Cutoff _ -> ());
                engine_result (Machine.run_budget ?cutoff ?event_budget c warm) = expected)
              queries
          in
          let h1, m1 = Machine.cache_stats () in
          agree
          && h1 - h0 = !expected_hits
          && m1 - m0 = List.length queries - !expected_hits)

(* A caller mutating the arrays of a memoized answer must not change
   what the next caller reads. *)
let test_machine_memo_returns_copies () =
  let kernel = kernel_of "kmeans" 0.25 in
  let v = (entry "kmeans").Sw_workloads.Registry.variant in
  let lowered = Sw_swacc.Lower.lower_exn p kernel v in
  let engine = Sw_sim.Engine.run config lowered.Sw_swacc.Lowered.programs in
  let first = Machine.metrics config lowered in
  Array.fill first.Sw_sim.Metrics.per_cpe_finish 0
    (Array.length first.Sw_sim.Metrics.per_cpe_finish) (-1.0);
  Array.fill first.Sw_sim.Metrics.mc_busy_cycles 0
    (Array.length first.Sw_sim.Metrics.mc_busy_cycles) (-1.0);
  let h0, _ = Machine.cache_stats () in
  let second = Machine.metrics config lowered in
  let h1, _ = Machine.cache_stats () in
  Alcotest.(check int) "second run is a hit" 1 (h1 - h0);
  Alcotest.(check bool) "hit = engine, untouched by the first caller" true (second = engine)

(* The memo never outlives a lowering: after [Lower.clear_cache] the
   cached lowering is a new value, and simulating it runs the engine. *)
let test_machine_memo_dies_with_the_lowering () =
  let kernel = kernel_of "lud" 0.5 in
  let v = (entry "lud").Sw_workloads.Registry.variant in
  let a = Sw_swacc.Lower.lower_cached_exn p kernel v in
  let ca = Machine.cycles config a in
  let _, m0 = Machine.cache_stats () in
  ignore (Machine.cycles config a);
  let _, m1 = Machine.cache_stats () in
  Alcotest.(check int) "same lowering: no engine run" 0 (m1 - m0);
  Sw_swacc.Lower.clear_cache ();
  let b = Sw_swacc.Lower.lower_cached_exn p kernel v in
  Alcotest.(check bool) "a fresh lowering" true (a != b);
  let cb = Machine.cycles config b in
  let _, m2 = Machine.cache_stats () in
  Alcotest.(check int) "fresh lowering: one engine run" 1 (m2 - m1);
  Alcotest.(check (float 0.0)) "same cycles" ca cb

(* ------------------------------------------------------------------ *)
(* Hybrid *)

let test_hybrid_no_gloads_equals_static () =
  let e = entry "kmeans" in
  let kernel = kernel_of "kmeans" 0.25 in
  let v = e.Sw_workloads.Registry.variant in
  let s = Result.get_ok (Backend.assess Backend.static_model config kernel v) in
  let h = Result.get_ok (Backend.assess (Backend.hybrid ()) config kernel v) in
  Alcotest.(check (float 0.0)) "identical to the static model" s.Backend.cycles
    h.Backend.cycles;
  Alcotest.(check (float 0.0)) "never profiles" 0.0 h.Backend.cost.Backend.machine_us

let test_hybrid_profiles_once_per_kernel () =
  let e = entry "bfs" in
  let kernel = kernel_of "bfs" 0.25 in
  let v = e.Sw_workloads.Registry.variant in
  let v2 = { v with Sw_swacc.Kernel.unroll = v.Sw_swacc.Kernel.unroll + 1 } in
  let b = Backend.hybrid () in
  let first = Result.get_ok (Backend.assess b config kernel v) in
  let second = Result.get_ok (Backend.assess b config kernel v2) in
  Alcotest.(check bool) "first assessment pays the profile" true
    (first.Backend.cost.Backend.machine_us > 0.0);
  Alcotest.(check (float 0.0)) "later assessments are free" 0.0
    second.Backend.cost.Backend.machine_us

let test_hybrid_pool_deterministic () =
  (* same verdict cycles whatever the assessment order: compare a fresh
     sequential instance against a fresh pooled one *)
  let e = entry "bfs" in
  let kernel = kernel_of "bfs" 0.25 in
  let points =
    Sw_tuning.Space.enumerate ~grains:e.Sw_workloads.Registry.grains
      ~unrolls:e.Sw_workloads.Registry.unrolls ()
  in
  let run pool_opt =
    let o =
      Sw_tuning.Tuner.tune_exn ~backend:(Backend.hybrid ()) ?pool:pool_opt config kernel ~points
    in
    (o.Sw_tuning.Tuner.best, o.Sw_tuning.Tuner.best_cycles, o.Sw_tuning.Tuner.evaluated)
  in
  let baseline = run None in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "hybrid search, %d domains" n)
        true
        (run (Some (pool n)) = baseline))
    [ 1; 4 ]

(* QCheck property: on the registry's kernels the hybrid estimate is
   bracketed by the static model and the simulator (with 5% slack for
   the calibration transfer); on gload-free kernels it equals the
   static model exactly. *)
let prop_hybrid_bracketed =
  let entries = Array.of_list Sw_workloads.Registry.all in
  QCheck.Test.make ~name:"hybrid bracketed by static model and simulator" ~count:25
    QCheck.(triple (int_range 0 (Array.length entries - 1)) (int_range 0 3) (int_range 1 4))
    (fun (ei, gi, unroll) ->
      let e = entries.(ei) in
      let kernel = e.Sw_workloads.Registry.build ~scale:0.25 in
      let grain = List.nth [ 8; 16; 32; 64 ] gi in
      let v = { Sw_swacc.Kernel.grain; unroll; active_cpes = 64; double_buffer = false } in
      match Backend.assess (Backend.hybrid ()) config kernel v with
      | Error _ -> QCheck.assume_fail () (* infeasible variant: vacuous *)
      | Ok h ->
          let s = Result.get_ok (Backend.assess Backend.static_model config kernel v) in
          let m = Result.get_ok (Backend.assess Backend.simulator config kernel v) in
          let has_gloads = kernel.Sw_swacc.Kernel.gloads <> None in
          if not has_gloads then h.Backend.cycles = s.Backend.cycles
          else
            let lo = Stdlib.min s.Backend.cycles m.Backend.cycles
            and hi = Stdlib.max s.Backend.cycles m.Backend.cycles in
            h.Backend.cycles >= (lo *. 0.95) && h.Backend.cycles <= (hi *. 1.05))

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_keys_and_aliases () =
  Alcotest.(check (list string)) "built-ins in order"
    [ "model"; "sim"; "hybrid"; "roofline" ]
    (Backend.registered ());
  List.iter
    (fun (alias, canonical) ->
      match Backend.find alias with
      | Some b -> Alcotest.(check string) alias canonical (Backend.name b)
      | None -> Alcotest.fail ("alias not found: " ^ alias))
    [
      ("static", "model");
      ("static-model", "model");
      ("empirical", "sim");
      ("simulator", "sim");
      ("MODEL", "model");
      ("Hybrid", "hybrid");
      ("roofline", "roofline");
    ];
  Alcotest.(check bool) "unknown key" true (Backend.find "magic" = None);
  match Backend.find_exn "magic" with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "lists the known backends" true
        (String.length msg > String.length "magic")
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_registry_fresh_hybrid_instances () =
  (* two lookups must not share a calibration cache: each pays its own
     profile on first assessment *)
  let e = entry "bfs" in
  let kernel = kernel_of "bfs" 0.25 in
  let v = e.Sw_workloads.Registry.variant in
  let cost1 =
    (Result.get_ok (Backend.assess (Backend.find_exn "hybrid") config kernel v)).Backend.cost
  in
  let cost2 =
    (Result.get_ok (Backend.assess (Backend.find_exn "hybrid") config kernel v)).Backend.cost
  in
  Alcotest.(check bool) "both instances profile" true
    (cost1.Backend.machine_us > 0.0 && cost2.Backend.machine_us > 0.0)

let test_register_custom_backend () =
  let custom : Backend.t =
    (module struct
      let name = "oracle"

      let description = "test backend"

      let assess ?cutoff:_ ?event_budget:_ _ _ _ =
        Backend.Assessed { Backend.cycles = 42.0; cost = Backend.zero_cost; breakdown = None }
    end)
  in
  Backend.register "oracle" (fun () -> custom);
  (match Backend.find "oracle" with
  | Some b ->
      let kernel = kernel_of "kmeans" 0.25 in
      let v = (entry "kmeans").Sw_workloads.Registry.variant in
      Alcotest.(check (float 0.0)) "custom backend answers" 42.0
        (Backend.cycles_exn b config kernel v)
  | None -> Alcotest.fail "custom backend not registered");
  Alcotest.(check bool) "appears in the listing" true
    (List.mem "oracle" (Backend.registered ()))

let tests =
  ( "backend",
    [
      Alcotest.test_case "static model = Predict.run" `Quick test_static_model_matches_predict;
      Alcotest.test_case "simulator = Engine.run" `Quick test_simulator_matches_engine;
      Alcotest.test_case "roofline = Roofline.analyze" `Quick test_roofline_matches_analyze;
      Alcotest.test_case "infeasible variant rejected" `Quick test_infeasible_variant_rejected;
      Alcotest.test_case "backends = direct layer calls" `Quick test_backends_equal_direct_layers;
      Alcotest.test_case "tuner = hand-rolled search" `Quick test_tuner_matches_hand_rolled_search;
      Alcotest.test_case "table2 rows pool-invariant" `Slow test_table2_rows_pool_invariant;
      Alcotest.test_case "fig6 rows pool-invariant" `Slow test_fig6_rows_pool_invariant;
      Alcotest.test_case "memo hit/miss accounting" `Quick test_memo_hit_miss_accounting;
      Alcotest.test_case "memo caches infeasibility" `Quick test_memo_caches_infeasibility;
      Alcotest.test_case "memo composes with pool" `Quick test_memo_composes_with_pool;
      Alcotest.test_case "memo sends budgeted queries inner" `Quick
        test_memo_budgeted_queries_go_inner;
      QCheck_alcotest.to_alcotest prop_machine_memo_exact;
      Alcotest.test_case "machine memo returns copies" `Quick test_machine_memo_returns_copies;
      Alcotest.test_case "machine memo dies with the lowering" `Quick
        test_machine_memo_dies_with_the_lowering;
      Alcotest.test_case "hybrid = static without gloads" `Quick test_hybrid_no_gloads_equals_static;
      Alcotest.test_case "hybrid profiles once" `Quick test_hybrid_profiles_once_per_kernel;
      Alcotest.test_case "hybrid pool-deterministic" `Quick test_hybrid_pool_deterministic;
      QCheck_alcotest.to_alcotest prop_hybrid_bracketed;
      Alcotest.test_case "registry keys and aliases" `Quick test_registry_keys_and_aliases;
      Alcotest.test_case "registry hybrids are fresh" `Quick test_registry_fresh_hybrid_instances;
      Alcotest.test_case "register custom backend" `Quick test_register_custom_backend;
    ] )
