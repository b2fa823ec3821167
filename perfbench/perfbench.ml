(* The repository benchmark.

   One executable drives the public tuning and serving API on one seeded
   workload, times every call from outside, checks every output against
   an independent oracle, and prints one JSON result line last:

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 [--size tiny]

   [--trace 0] prints the end-to-end metrics, measured with tracing off.
   [--trace 1] measures the same work untraced and then traced, and
   prints the per-layer metrics: the traced run swaps the registered
   "model" and "sim" backends for replicas composed from the layer
   functions themselves (Codegen.block, Schedule.block_costs,
   Lower.summarize, Predict.run, Lower.lower, Engine.run), so each
   layer's time is taken around its own call, in the order and cache
   state of the untraced run.  The replicas return bit-identical
   verdicts; the output checks prove it on every traced run.

   The process also serves as its own shard worker ([shard-worker
   --spec JSON], the same entry point [swmodel shard-worker] wraps), so
   the sharded workload needs no second executable.

   See perfbench/README.md for the workloads and metric definitions. *)

module Backend = Sw_backend.Backend
module Machine = Sw_backend.Machine
module Kernel = Sw_swacc.Kernel
module Lower = Sw_swacc.Lower
module Lowered = Sw_swacc.Lowered
module Schedule = Sw_isa.Schedule
module Tuner = Sw_tuning.Tuner
module Search = Sw_tuning.Search
module Space = Sw_tuning.Space
module Registry = Sw_workloads.Registry
module Sink = Sw_obs.Sink
module Json = Sw_obs.Json
module H = Sw_serve.Handler
module Server = Sw_serve.Server

(* CLOCK_MONOTONIC, in seconds with nanosecond resolution *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* The highest percentile with at least ten samples beyond it, as
   [(percentile, value)]; the maximum when that percentile would not
   reach the median (fewer than twenty samples). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (100.0, 0.0)
  else if n < 20 then (100.0, a.(n - 1))
  else (100.0 *. float_of_int (n - 10) /. float_of_int n, a.(n - 11))

let sum xs = List.fold_left ( +. ) 0.0 xs

let ratio a b = if b > 0.0 then a /. b else 0.0

let mean xs = ratio (sum xs) (float_of_int (List.length xs))

let peak_rss_mb () =
  let from_status () =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           if String.starts_with ~prefix:"VmHWM:" line then
             Scanf.sscanf_opt (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                 float_of_int kb /. 1024.0)
           else None)
  in
  match from_status () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* 48 bits of FNV-1a 64: exact as a JSON number. *)
let digest parts =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    (String.concat "|" parts);
  Int64.to_float (Int64.shift_right_logical !h 16)

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

let attempted = ref 0

let failed = ref 0

let check ok fmt =
  incr attempted;
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failed;
        Printf.printf "CHECK FAILED: %s\n%!" msg
      end)
    fmt

(* ------------------------------------------------------------------ *)
(* Layer accounting for the traced run                                 *)

let layer_lock = Mutex.create ()

let layers : (string, float ref) Hashtbl.t = Hashtbl.create 64

let bump name v =
  Mutex.protect layer_lock (fun () ->
      match Hashtbl.find_opt layers name with
      | Some r -> r := !r +. v
      | None -> Hashtbl.add layers name (ref v))

let layer name =
  Mutex.protect layer_lock (fun () ->
      match Hashtbl.find_opt layers name with Some r -> !r | None -> 0.0)

let spm_feasible params kernel (v : Kernel.variant) =
  v.grain > 0 && v.unroll > 0 && v.active_cpes > 0
  && v.active_cpes <= Sw_arch.Params.total_cpes params
  && Lower.spm_required kernel v <= params.Sw_arch.Params.spm_bytes

(* Generate and schedule the variant's compute blocks from outside, as
   the compile inside [Lower] does.  Scheduling here fills the shared
   block-cost cache, so the lookups inside Predict.run and Engine.run
   that follow are hits: the cost moves to this layer, it is not paid
   twice.  Code generation is paid twice (here and inside the compile),
   so its time is returned for the caller to subtract from the compile
   span and is booked as [trace.replay_s]. *)
let replay_blocks params kernel (v : Kernel.variant) =
  let gen unroll =
    Sw_swacc.Codegen.block ~ialu_per_access:kernel.Kernel.ialu_per_access ~unroll
      kernel.Kernel.body
  in
  let t0 = now () in
  let block_u = gen v.unroll in
  let blocks = if v.unroll = 1 then [ block_u ] else [ block_u; gen 1 ] in
  let t1 = now () in
  List.iter (fun b -> ignore (Schedule.block_costs params b)) blocks;
  let t2 = now () in
  let n = float_of_int (List.length blocks) in
  bump "codegen.block_calls" n;
  bump "codegen.block_s" (t1 -. t0);
  bump "schedule.block_costs_s" (t2 -. t1);
  bump "trace.replay_s" (t1 -. t0);
  t1 -. t0

(* Replica of [Backend.static_model]: summarize, then Predict.run. *)
let traced_model : Backend.t =
  (module struct
    let name = Backend.name Backend.static_model

    let description = Backend.description Backend.static_model

    let assess ?cutoff ?event_budget:_ (config : Sw_sim.Config.t) kernel variant =
      let params = config.Sw_sim.Config.params in
      Backend.timed (fun () ->
          let codegen_s =
            if spm_feasible params kernel variant then replay_blocks params kernel variant else 0.0
          in
          let t0 = now () in
          let summary = Lower.summarize params kernel variant in
          bump "lower.summarize_calls" 1.0;
          bump "lower.summarize_self_s" (Float.max 0.0 (now () -. t0 -. codegen_s));
          match summary with
          | Error reason ->
              bump "lower.infeasible" 1.0;
              `Infeasible { Backend.backend = name; reason }
          | Ok summary ->
              let t1 = now () in
              let p = Swpm.Predict.run params summary in
              bump "predict.run_calls" 1.0;
              bump "predict.run_s" (now () -. t1);
              Backend.static_result ?cutoff p.Swpm.Predict.t_total (Some p))
  end)

(* Replica of [Backend.simulator]: lower through the shared cache, then
   run the engine under the caller's budget. *)
let traced_sim : Backend.t =
  (module struct
    let name = Backend.name Backend.simulator

    let description = Backend.description Backend.simulator

    let assess ?cutoff ?event_budget (config : Sw_sim.Config.t) kernel variant =
      let params = config.Sw_sim.Config.params in
      let us c = Sw_util.Units.cycles_to_us ~freq_hz:params.Sw_arch.Params.freq_hz c in
      Backend.timed (fun () ->
          let _, misses0 = Lower.cache_stats () in
          let t0 = now () in
          let lowered = Lower.lower_cached params kernel variant in
          let lower_s = now () -. t0 in
          let _, misses1 = Lower.cache_stats () in
          let codegen_s =
            if misses1 > misses0 && spm_feasible params kernel variant then
              replay_blocks params kernel variant
            else 0.0
          in
          bump "lower.lower_calls" 1.0;
          bump "lower.lower_s" (Float.max 0.0 (lower_s -. codegen_s));
          match lowered with
          | Error reason ->
              bump "lower.infeasible" 1.0;
              `Infeasible { Backend.backend = name; reason }
          | Ok lowered -> (
              let t1 = now () in
              let r = Machine.run_budget ?cutoff ?event_budget config lowered in
              bump "engine.run_calls" 1.0;
              bump "engine.run_s" (now () -. t1);
              match r with
              | Sw_sim.Engine.Finished m ->
                  let cycles = m.Sw_sim.Metrics.cycles in
                  bump "engine.events" (float_of_int m.Sw_sim.Metrics.events);
                  `Priced (cycles, us cycles, m.Sw_sim.Metrics.events, None)
              | Sw_sim.Engine.Cutoff { at; events } ->
                  bump "engine.events" (float_of_int events);
                  bump "engine.cutoffs" 1.0;
                  `Cut (at, us at, events)))
  end)

(* Run [f], adding the shared caches' hits and misses during it to the
   layer table. *)
let with_cache_counts f =
  let (sh0, sm0), (lh0, lm0) = (Schedule.cache_stats (), Lower.cache_stats ()) in
  let r = f () in
  let (sh1, sm1), (lh1, lm1) = (Schedule.cache_stats (), Lower.cache_stats ()) in
  (* a cache cleared at the start of [f] restarts its counters at 0 *)
  let delta a0 a1 b0 b1 = if a1 >= a0 && b1 >= b0 then (a1 - a0, b1 - b0) else (a1, b1) in
  let sh, sm = delta sh0 sh1 sm0 sm1 and lh, lm = delta lh0 lh1 lm0 lm1 in
  bump "schedule.hits" (float_of_int sh);
  bump "schedule.misses" (float_of_int sm);
  bump "lower.cache_hits" (float_of_int lh);
  bump "lower.cache_misses" (float_of_int lm);
  r

(* Route the registered "model" and "sim" backends to the traced
   replicas, or back to the library's own. *)
let set_tracing on =
  Backend.register "model" (fun () -> if on then traced_model else Backend.static_model);
  Backend.register "sim" (fun () -> if on then traced_sim else Backend.simulator)

let clear_caches () =
  Lower.clear_cache ();
  Schedule.clear_cache ();
  Sw_sim.Engine.clear_compile_cache ()

(* Backend spans the tuner's instrumentation recorded: (calls, seconds). *)
let backend_spans sink =
  List.fold_left
    (fun (n, s) (sp : Sink.span) ->
      if sp.Sink.cat = "backend" then (n + 1, s +. (sp.Sink.dur_us /. 1e6)) else (n, s))
    (0, 0.0) (Sink.spans sink)

(* Time spent in the named layers (self times), which the unattributed
   share is measured against. *)
let named_layers =
  [
    "codegen.block_s";
    "schedule.block_costs_s";
    "lower.summarize_self_s";
    "predict.run_s";
    "lower.lower_s";
    "engine.run_s";
    "tuner.verify_s";
    "handler.parse_s";
    "handler.encode_s";
  ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

(* End-to-end metrics, printed with tracing off by every workload. *)
let end_to_end =
  [ ("setup_s", "s"); ("points_per_s", "1/s"); ("peak_rss_mb", "MB"); ("model_error_pct", "%") ]

(* Per-layer metrics, printed with tracing on by every workload.  A metric
   whose layer is not on a workload's path reads 0 there.  The
   request-stream figures (rps .. saturation_rps) exist on serve-mixed
   only, so they are printed here rather than as end-to-end metrics,
   which every workload must report non-zero. *)
let per_layer =
  [
    ("codegen.block_calls", "count");
    ("codegen.block_s", "s");
    ("schedule.block_costs_s", "s");
    ("schedule.cache_hit_ratio", "ratio");
    ("lower.summarize_calls", "count");
    ("lower.summarize_self_s", "s");
    ("lower.infeasible_ratio", "ratio");
    ("predict.run_calls", "count");
    ("predict.run_s", "s");
    ("lower.lower_calls", "count");
    ("lower.lower_s", "s");
    ("lower.cache_hit_ratio", "ratio");
    ("engine.run_calls", "count");
    ("engine.run_s", "s");
    ("engine.events", "count");
    ("engine.events_per_s", "1/s");
    ("engine.cutoff_ratio", "ratio");
    ("search.priced", "count");
    ("search.pruned", "count");
    ("search.verified_share", "ratio");
    ("search.rank_s", "s");
    ("search.machine_us", "us");
    ("tuner.assess_s", "s");
    ("tuner.verify_s", "s");
    ("tuner.quality_loss_pct", "%");
    ("backend.assess_calls", "count");
    ("backend.assess_s", "s");
    ("backend.journal_hits", "count");
    ("backend.journal_misses", "count");
    ("shard.restarts", "count");
    ("shard.lines_dropped", "count");
    ("shard.worker_cpu_s", "s");
    ("shard.merge_s", "s");
    ("host.reference_s", "s");
    ("host.points_per_s_raw", "1/s");
    ("sim.digest", "hash");
    ("check.fail_ratio", "ratio");
    ("trace.unattributed_share", "ratio");
    ("trace.overhead_pct", "%");
    ("rps", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("late_ratio", "ratio");
    ("saturation_rps", "1/s");
    ("backend.memo_hit_ratio", "ratio");
    ("handler.parse_s", "s");
    ("handler.encode_s", "s");
    ("handler.predict_ms_p50", "ms");
    ("handler.tune_ms_p50", "ms");
    ("handler.timeline_ms_p50", "ms");
    ("server.batches", "count");
    ("server.max_batch", "count");
    ("server.degraded", "count");
    ("server.deadline_refused", "count");
    ("server.queue_wait_ms_p50", "ms");
    ("server.queue_wait_ms_tail", "ms");
    ("loadgen.lag_ms_tail", "ms");
    ("loadgen.tail_percentile", "%");
  ]

(* What one workload run reports: the end-to-end values it measured
   and, in [layer], its per-layer values.  [peak_rss_mb] is read when
   measuring ends, before the output checks, which run extra tunes of
   their own. *)
type report = {
  setup_s : float;
  points_per_s : float;
  peak_rss_mb : float;
  model_error_pct : float;
  layer : (string * float) list;
}

(* Per-layer values from the layer table, divided by the number of
   traced repetitions so that counts are per unit of work.
   [wall_traced] is the traced wall time over all repetitions. *)
let traced_layers ~reps ~wall_traced ~overhead_pct =
  let per v = v /. float_of_int (Stdlib.max 1 reps) in
  let l name = per (layer name) in
  let replay = layer "trace.replay_s" in
  let named = sum (List.map layer named_layers) in
  let covered = wall_traced -. replay in
  [
    ("codegen.block_calls", l "codegen.block_calls");
    ("codegen.block_s", l "codegen.block_s");
    ("schedule.block_costs_s", l "schedule.block_costs_s");
    ( "schedule.cache_hit_ratio",
      ratio (layer "schedule.hits") (layer "schedule.hits" +. layer "schedule.misses") );
    ( "lower.cache_hit_ratio",
      ratio (layer "lower.cache_hits") (layer "lower.cache_hits" +. layer "lower.cache_misses") );
    ("lower.summarize_calls", l "lower.summarize_calls");
    ("lower.summarize_self_s", l "lower.summarize_self_s");
    ( "lower.infeasible_ratio",
      ratio (layer "lower.infeasible")
        (layer "lower.summarize_calls" +. layer "lower.lower_calls") );
    ("predict.run_calls", l "predict.run_calls");
    ("predict.run_s", l "predict.run_s");
    ("lower.lower_calls", l "lower.lower_calls");
    ("lower.lower_s", l "lower.lower_s");
    ("engine.run_calls", l "engine.run_calls");
    ("engine.run_s", l "engine.run_s");
    ("engine.events", l "engine.events");
    ("engine.events_per_s", ratio (layer "engine.events") (layer "engine.run_s"));
    ("engine.cutoff_ratio", ratio (layer "engine.cutoffs") (layer "engine.run_calls"));
    ("trace.unattributed_share", Float.max 0.0 (ratio (covered -. named) covered));
    ("trace.overhead_pct", overhead_pct);
  ]

(* ------------------------------------------------------------------ *)
(* Tuning jobs                                                         *)

type strategy = Exhaustive | Shortlist | Adaptive

type job = {
  label : string;
  config : Sw_sim.Config.t;
  kernel : Kernel.t;
  points : Space.point list;
  backend : string;
  strategy : strategy;
  default : Kernel.variant;
}

type call = { job : job; outcome : Tuner.outcome; wall : float }

let search_of job =
  (* quarter-space shortlist, as the CLI and the daemon default to *)
  let k = Stdlib.max 1 (List.length job.points / 4) in
  let rank = Backend.find_exn "model" in
  match job.strategy with
  | Exhaustive -> Search.exhaustive
  | Shortlist -> Search.shortlist ~rank ~k ()
  | Adaptive -> Search.adaptive_shortlist ~rank ~k ()

let run_job ?obs job =
  incr attempted;
  let backend = Backend.find_exn job.backend in
  let strategy = search_of job in
  let t0 = now () in
  match
    Tuner.tune ~backend ~strategy ~default:job.default ?obs job.config job.kernel
      ~points:job.points
  with
  | Ok outcome -> Some { job; outcome; wall = now () -. t0 }
  | Error (`No_feasible_point msg) ->
      incr failed;
      Printf.printf "CHECK FAILED: %s: %s\n%!" job.label msg;
      None

let config_of_seed seed = { (Sw_sim.Config.default Sw_arch.Params.default) with Sw_sim.Config.seed }

(* A pick is one tune's answer: what [sim.digest] fingerprints and
   [model_error_pct] prices. *)
type pick = {
  p_label : string;
  p_config : Sw_sim.Config.t;
  p_kernel : Kernel.t;
  p_best : Kernel.variant;
  p_best_cycles : float;
  p_default_cycles : float;
}

let pick_of c =
  {
    p_label = c.job.label;
    p_config = c.job.config;
    p_kernel = c.job.kernel;
    p_best = c.outcome.Tuner.best;
    p_best_cycles = c.outcome.Tuner.best_cycles;
    p_default_cycles = c.outcome.Tuner.default_cycles;
  }

let variant_key (v : Kernel.variant) =
  Printf.sprintf "g%d/u%d/c%d/db%b" v.grain v.unroll v.active_cpes v.double_buffer

let sim_digest picks =
  digest
    (List.map
       (fun p ->
         let params = p.p_config.Sw_sim.Config.params in
         let m = Machine.metrics p.p_config (Lower.lower_exn params p.p_kernel p.p_best) in
         let dma, gloads =
           match Lower.summarize params p.p_kernel p.p_best with
           | Ok s -> (Lowered.dma_requests_per_cpe s, s.Lowered.gload_count)
           | Error _ -> (Float.nan, -1)
         in
         Printf.sprintf "%s:%s:%h:%h:%d:%d:%d:%h:%d" p.p_label (variant_key p.p_best)
           p.p_best_cycles p.p_default_cycles m.Sw_sim.Metrics.events
           m.Sw_sim.Metrics.dma_requests m.Sw_sim.Metrics.transactions dma gloads)
       picks)

(* Mean |model - sim| / sim over the picks, in percent: error against
   this repository's simulator, not against SW26010 hardware. *)
let model_error picks =
  100.0
  *. mean
       (List.map
          (fun p ->
            let model = Backend.cycles_exn Backend.static_model p.p_config p.p_kernel p.p_best in
            Float.abs (model -. p.p_best_cycles) /. p.p_best_cycles)
          picks)

let same_pick a b =
  a.outcome.Tuner.best = b.outcome.Tuner.best
  && a.outcome.Tuner.best_cycles = b.outcome.Tuner.best_cycles
  && a.outcome.Tuner.default_cycles = b.outcome.Tuner.default_cycles

(* ------------------------------------------------------------------ *)
(* Tuning workloads: static-dense and empirical-table2                 *)

let repeat_for seconds f =
  let t_end = now () +. seconds in
  let rec go acc =
    let acc = f () :: acc in
    if now () >= t_end then List.rev acc else go acc
  in
  go []

(* Host-speed normalization.  The CPU speed of a shared host drifts by
   20-35% over seconds to minutes (co-tenant load on the same cores), and
   every host-time figure drifts with it.  A fixed reference loop that
   uses no code of this repository is timed right before and right after
   every pass; a pass's wall time is scaled by [reference_s] over the mean
   of the two, so the reported rates and set-up times are those of a host
   on which the reference takes exactly [reference_s].  Over 20 s windows
   this cut the spread of static-dense's median pass time from 0.17 to
   0.03 of its median.  A change that speeds up this repository's code
   moves the normalized figures; one that changes the OCaml runtime (GC
   settings) moves the reference too and is partly cancelled. *)
let reference_s = 0.1

let reference_loop () =
  let t0 = now () in
  let tbl = Hashtbl.create 1024 in
  for i = 1 to 240 do
    let l = List.init 2000 (fun k -> ((k * i) land 1023, k)) in
    List.iter
      (fun (a, b) ->
        Hashtbl.replace tbl a (b + Option.value (Hashtbl.find_opt tbl a) ~default:0))
      l;
    ignore (List.sort compare (List.map fst l))
  done;
  now () -. t0

(* The reference in this process, on the thread that runs the passes.
   The loop's garbage collection work may grow with the live heap, so
   the process-wide caches are dropped first: what stays live is the
   workload's inputs, and a change that only makes the program keep less
   memory does not move the reference.  (A standalone copy of the loop
   read within host noise, under 5%, with 200 MB more live or dropped
   data.)  No collection is forced here: that would shift the collector's
   pacing and so the peak RSS the workload reports. *)
let reference () =
  clear_caches ();
  reference_loop ()

let normalized ~ref_s seconds = seconds *. reference_s /. ref_s

(* The reference for work that runs in two worker processes and waits for
   the slower: the slower of two concurrent runs in short-lived child
   processes (this executable with the argument [reference]). *)
let reference_pair () =
  let start () =
    Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "reference" |]
  in
  let finish ic =
    let line = input_line ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> float_of_string line
    | _ -> failwith "reference child failed"
  in
  let a = start () in
  let b = start () in
  let ta = finish a in
  Float.max ta (finish b)

(* The raw figures behind the normalization. *)
let host_layers ~raw_points_per_s refs =
  [ ("host.reference_s", median refs); ("host.points_per_s_raw", raw_points_per_s) ]

(* A workload's set-up is timed [setup_reps] times before measuring and
   once more after every pass, so that its median samples the same
   machine conditions as the passes.  One sample averages enough
   back-to-back set-ups to last about a millisecond, so that a
   microsecond set-up is not lost in timer and cache noise; each sample
   starts after a full major collection and is normalized by the
   reference time measured next to it. *)
let setup_reps = 5

type 'a setup = { make : unit -> 'a; mutable batch : int; mutable times : float list }

let set_up ~ref_s s =
  Gc.full_major ();
  let t0 = now () in
  let v = ref (s.make ()) in
  for _ = 2 to s.batch do
    v := s.make ()
  done;
  s.times <- normalized ~ref_s ((now () -. t0) /. float_of_int s.batch) :: s.times;
  !v

(* The set-up and the value of its last run.  The first, cold set-up
   only sizes the batch. *)
let prepare make =
  let s = { make; batch = 1; times = [] } in
  let v = ref (set_up ~ref_s:reference_s s) in
  s.batch <- Stdlib.max 1 (int_of_float (1e-3 /. List.hd s.times));
  s.times <- [];
  let ref_s = reference () in
  for _ = 1 to setup_reps do
    v := set_up ~ref_s s
  done;
  (s, !v)

let static_dense_jobs ~tiny seed =
  let config = config_of_seed seed in
  let r = Space.range in
  let spaces =
    if tiny then
      [ ("kmeans", r 1 16, r 1 2); ("backprop", r 1 8, r 1 2); ("hotspot", r 1 16, r 1 2) ]
    else
      [
        ("kmeans", r 1 1024, r 1 4);
        (* strided: one DMA transfer per row, the costliest summary *)
        ("backprop", r 1 128, r 1 4);
        (* mostly infeasible: cheap SPM rejections *)
        ("hotspot", r 1 1024, r 1 4);
      ]
  in
  List.map
    (fun (name, grains, unrolls) ->
      let entry = Registry.find_exn name in
      {
        label = name ^ "/model/exhaustive";
        config;
        kernel = entry.Registry.build ~scale:1.0;
        points = Space.enumerate ~grains ~unrolls ~double_buffers:[ false; true ] ();
        backend = "model";
        strategy = Exhaustive;
        default = entry.Registry.variant;
      })
    spaces

let empirical_jobs ~tiny seed =
  let config = config_of_seed seed in
  let scale = if tiny then 1.0 else 4.0 in
  List.concat_map
    (fun (entry : Registry.entry) ->
      let kernel = entry.Registry.build ~scale in
      let points =
        Space.enumerate ~grains:entry.Registry.grains ~unrolls:entry.Registry.unrolls ()
      in
      let job backend strategy name =
        {
          label = Printf.sprintf "%s/%s/%s" entry.Registry.name backend name;
          config;
          kernel;
          points;
          backend;
          strategy;
          default = entry.Registry.variant;
        }
      in
      [
        job "sim" Exhaustive "exhaustive";
        job "sim" Shortlist "shortlist";
        job "sim" Adaptive "adaptive";
        job "model" Exhaustive "exhaustive";
      ])
    Registry.tuning_subset

(* One pass over the jobs from cold caches, as a fresh process would
   run them. *)
let iteration ?obs jobs =
  clear_caches ();
  let t0 = now () in
  let calls = List.filter_map (fun job -> run_job ?obs job) jobs in
  (calls, now () -. t0)

let points_of jobs = float_of_int (List.fold_left (fun a j -> a + List.length j.points) 0 jobs)

(* The exhaustive sim tune of the same space as [c]: the oracle. *)
let sim_oracle calls c =
  List.find_opt
    (fun o -> o.job.backend = "sim" && o.job.strategy = Exhaustive && o.job.points == c.job.points)
    calls

(* Empirical-table2 output checks: the shortlist and adaptive argmins
   equal the exhaustive oracle on the same space. *)
let check_strategies calls =
  List.iter
    (fun c ->
      if c.job.backend = "sim" && c.job.strategy <> Exhaustive then
        match sim_oracle calls c with
        | None -> check false "%s: no exhaustive oracle ran" c.job.label
        | Some o ->
            check
              (o.outcome.Tuner.best = c.outcome.Tuner.best
              && o.outcome.Tuner.best_cycles = c.outcome.Tuner.best_cycles)
              "%s picks %s (%.1f cycles), exhaustive picks %s (%.1f)" c.job.label
              (variant_key c.outcome.Tuner.best) c.outcome.Tuner.best_cycles
              (variant_key o.outcome.Tuner.best) o.outcome.Tuner.best_cycles)
    calls

(* Table II's quality loss: each static pick against the empirical one. *)
let quality_loss_pct calls =
  100.0
  *. mean
       (List.filter_map
          (fun s ->
            if s.job.backend <> "model" then None
            else
              Option.map
                (fun e -> Tuner.quality_loss ~static:s.outcome ~empirical:e.outcome)
                (sim_oracle calls s))
          calls)

let tune_workload ~jobs_of ~extra_checks ~seconds ~trace ~tiny seed =
  let setup, jobs =
    prepare (fun () ->
        let jobs = jobs_of ~tiny seed in
        clear_caches ();
        jobs)
  in
  (* A traced run alternates untraced and traced passes, so that both
     see the same machine conditions. *)
  let sink = Sink.create () in
  let passes =
    repeat_for seconds (fun () ->
        let before = reference () in
        let untraced = iteration jobs in
        let after = reference () in
        let traced =
          if not trace then None
          else begin
            set_tracing true;
            clear_caches ();
            let traced = with_cache_counts (fun () -> iteration ~obs:sink jobs) in
            set_tracing false;
            Some traced
          end
        in
        clear_caches ();
        ignore (set_up ~ref_s:after setup);
        (untraced, (before +. after) /. 2.0, traced))
  in
  let rss = peak_rss_mb () in
  let iters = List.map (fun (u, _, _) -> u) passes in
  let refs = List.map (fun (_, r, _) -> r) passes in
  let traced = List.filter_map (fun (_, _, t) -> t) passes in
  let first, _ = List.hd iters in
  List.iteri
    (fun i (calls, _) ->
      check (List.length calls = List.length first && List.for_all2 same_pick first calls)
        "pass %d picks differ from pass 0" i;
      extra_checks calls)
    (iters @ traced);
  let points = points_of jobs in
  let picks = List.map pick_of (List.filter (fun c -> c.job.strategy = Exhaustive) first) in
  let layer =
    if not trace then []
    else begin
      let reps = List.length traced in
      let per v = v /. float_of_int reps in
      let all_calls = List.concat_map fst traced in
      let sumf f = sum (List.map f all_calls) in
      let verify_s = sumf (fun c -> c.wall -. c.outcome.Tuner.tuning_host_s) in
      bump "tuner.verify_s" verify_s;
      let spans, span_s = backend_spans sink in
      let priced = sumf (fun c -> float_of_int c.outcome.Tuner.evaluated) in
      let overhead_pct =
        100.0 *. (ratio (median (List.map snd traced)) (median (List.map snd iters)) -. 1.0)
      in
      traced_layers ~reps ~wall_traced:(sum (List.map snd traced)) ~overhead_pct
      |> List.append
           [
             ("search.priced", per priced);
             ("search.pruned", per (sumf (fun c -> float_of_int c.outcome.Tuner.points_pruned)));
             ("search.verified_share", ratio priced (points *. float_of_int reps));
             ("search.rank_s", per (sumf (fun c -> c.outcome.Tuner.rank_host_s)));
             ("search.machine_us", per (sumf (fun c -> c.outcome.Tuner.machine_time_us)));
             ("tuner.assess_s", per (sumf (fun c -> c.outcome.Tuner.tuning_host_s)));
             ("tuner.verify_s", per verify_s);
             ("backend.assess_calls", per (float_of_int spans));
             ("backend.assess_s", per span_s);
           ]
    end
  in
  let sim_digest = sim_digest picks in
  {
    setup_s = median setup.times;
    points_per_s =
      median (List.map2 (fun (_, wall) ref_s -> points /. normalized ~ref_s wall) iters refs);
    peak_rss_mb = rss;
    model_error_pct = model_error picks;
    layer =
      layer
      @ host_layers
          ~raw_points_per_s:(median (List.map (fun (_, wall) -> points /. wall) iters))
          refs
      @ [ ("sim.digest", sim_digest); ("tuner.quality_loss_pct", quality_loss_pct first) ];
  }

(* ------------------------------------------------------------------ *)
(* serve-mixed: an open-loop request stream into Server.serve          *)

let offered_rps = 30.0

let latency_limit_ms = 250.0

type sreq = { id : int; due : float; line : string; op : string }

(* Seeded request streams.  The classes, with their shares of the stream
   in percent: model predict, sim predict, timeline, model tune, sim
   exhaustive tune, sim shortlist tune.  In the open loop [repeat_share]
   of the requests copy an earlier body exactly (memo hits), and in both
   phases [deadline_share] carry a deadline generous enough never to be
   refused, so admission runs its estimate without shedding.  Tunes have
   at most 15 distinct bodies (5 kernels x 3 classes), so they repeat
   too, as a service's popular requests do. *)
let shares = [| 35; 20; 10; 15; 10; 10 |]

let repeat_share = 0.25

let deadline_share = 0.2

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Each kernel's grain x unroll points in a seeded order, handed out in
   turn, so that every seed's predicts and timelines spread evenly over
   the same points rather than over a random subset of them. *)
let point_cycle rng =
  let cycles = Hashtbl.create 8 in
  fun (e : Registry.entry) ->
    let points, next =
      match Hashtbl.find_opt cycles e.Registry.name with
      | Some c -> c
      | None ->
          let points =
            Array.of_list
              (List.concat_map
                 (fun g -> List.map (fun u -> (g, u)) e.Registry.unrolls)
                 e.Registry.grains)
          in
          shuffle rng points;
          let c = (points, ref 0) in
          Hashtbl.replace cycles e.Registry.name c;
          c
    in
    let p = points.(!next mod Array.length points) in
    incr next;
    p

let body ~next_point ~seed ~cls (e : Registry.entry) =
  let k = e.Registry.name in
  let tune fields =
    ("tune", Printf.sprintf {|"op":"tune","kernel":"%s",%s,"seed":%d|} k fields seed)
  in
  match cls with
  | 0 | 1 ->
      let grain, unroll = next_point e in
      ( "predict",
        Printf.sprintf
          {|"op":"predict","kernel":"%s","backend":"%s","grain":%d,"unroll":%d,"seed":%d|} k
          (if cls = 0 then "model" else "sim")
          grain unroll seed )
  | 2 ->
      let grain, unroll = next_point e in
      ( "timeline",
        Printf.sprintf {|"op":"timeline","kernel":"%s","grain":%d,"unroll":%d,"seed":%d|} k grain
          unroll seed )
  | 3 -> tune {|"backend":"model"|}
  | 4 -> tune {|"backend":"sim"|}
  | _ -> tune {|"backend":"sim","strategy":"shortlist","rank":"model"|}

let with_deadline rng ~id ~due (op, b) =
  let deadline =
    if Random.State.float rng 1.0 < deadline_share then {|,"deadline_ms":20000|} else ""
  in
  { id; due; line = Printf.sprintf {|{"id":%d,%s%s}|} id b deadline; op }

(* The open-loop stream: request [i] is due [due i] seconds after the
   start; classes and kernels are drawn at random. *)
let request_stream rng ~next_point ~seed ~n ~due =
  let kernels = Array.of_list Registry.tuning_subset in
  let draw_class () =
    let u = Random.State.int rng 100 in
    let rec go c acc = if u < acc + shares.(c) then c else go (c + 1) (acc + shares.(c)) in
    go 0 0
  in
  let bodies = ref [||] in
  List.init n (fun i ->
      let ob =
        if Array.length !bodies > 0 && Random.State.float rng 1.0 < repeat_share then
          !bodies.(Random.State.int rng (Array.length !bodies))
        else begin
          let cls = draw_class () in
          let e = kernels.(Random.State.int rng (Array.length kernels)) in
          let ob = body ~next_point ~seed ~cls e in
          bodies := Array.append !bodies [| ob |];
          ob
        end
      in
      with_deadline rng ~id:i ~due:(due i) ob)

(* A burst, all due at once: for every kernel, [shares.(c) / 5] requests
   of each class [c] (20 per kernel), in seeded order, so that every
   burst holds the same mix of work. *)
let burst rng ~next_point ~seed ~first kernels =
  let reqs =
    Array.of_list
      (List.concat_map
         (fun e ->
           List.concat
             (List.mapi
                (fun cls sh -> List.init (sh / 5) (fun _ -> body ~next_point ~seed ~cls e))
                (Array.to_list shares)))
         kernels)
  in
  shuffle rng reqs;
  Array.mapi (fun i ob -> with_deadline rng ~id:(first + i) ~due:0.0 ob) reqs

type server = {
  req_w : Unix.file_descr;
  resp_r : Unix.file_descr;
  state : H.state;
  domain : Server.stats Domain.t;
  pending : Buffer.t;
}

let start_server () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let state = H.create () in
  let domain =
    Domain.spawn (fun () ->
        let oc = Unix.out_channel_of_descr resp_w in
        let stats = Server.serve state ~input:req_r ~output:oc in
        close_out oc;
        Unix.close req_r;
        stats)
  in
  { req_w; resp_r; state; domain; pending = Buffer.create 4096 }

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Read whatever is available and return the complete lines. *)
let read_lines srv =
  let chunk = Bytes.create 65536 in
  let n = Unix.read srv.resp_r chunk 0 65536 in
  if n = 0 then None
  else begin
    Buffer.add_subbytes srv.pending chunk 0 n;
    let s = Buffer.contents srv.pending in
    let parts = String.split_on_char '\n' s in
    let rec split = function
      | [] -> ([], "")
      | [ last ] -> ([], last)
      | x :: rest ->
          let lines, last = split rest in
          (x :: lines, last)
    in
    let lines, rest = split parts in
    Buffer.clear srv.pending;
    Buffer.add_string srv.pending rest;
    Some lines
  end

let stop_server srv =
  Unix.close srv.req_w;
  let rec drain () = match read_lines srv with None -> () | Some _ -> drain () in
  drain ();
  Unix.close srv.resp_r;
  Domain.join srv.domain

let json_of line = match Json.parse line with Ok j -> j | Error _ -> Json.Null

(* Send every request at its due time (seconds after [t0]) and collect
   every response: (sent, received, response line) per request, times in
   seconds after [t0].  One loop both writes and reads, so a large
   response never blocks a due request.  Requests due together go out in
   one write, so a burst reaches the server whole and how the server
   batches it (and so what it sheds) does not depend on scheduling.  The
   responses are kept as lines and only their leading id is read, so that
   the benchmark's own allocation stays small next to the server's. *)
let drive srv reqs =
  let n = Array.length reqs in
  let sent = Array.make n 0.0 and recv = Array.make n 0.0 in
  let resp = Array.make n "" in
  let base = if n = 0 then 0 else reqs.(0).id in
  let t0 = now () in
  let next = ref 0 and got = ref 0 in
  let due = Buffer.create 4096 in
  while !got < n do
    let first = !next in
    while !next < n && reqs.(!next).due <= now () -. t0 do
      Buffer.add_string due reqs.(!next).line;
      Buffer.add_char due '\n';
      incr next
    done;
    if !next > first then begin
      write_all srv.req_w (Buffer.contents due);
      Buffer.clear due;
      Array.fill sent first (!next - first) (now () -. t0)
    end;
    let timeout = if !next < n then Float.max 0.0 (reqs.(!next).due -. (now () -. t0)) else 5.0 in
    match Unix.select [ srv.resp_r ] [] [] timeout with
    | [], _, _ -> ()
    | _ -> (
        let t = now () -. t0 in
        match read_lines srv with
        | None -> failwith "server closed its output early"
        | Some lines ->
            List.iter
              (fun line ->
                match Scanf.sscanf_opt line "{\"id\": %d" Fun.id with
                | Some id when id - base >= 0 && id - base < n ->
                    recv.(id - base) <- t;
                    resp.(id - base) <- line;
                    incr got
                | _ -> check false "unmatched response line %S" line)
              lines)
  done;
  (sent, recv, resp)

let flag name j = Option.value (Option.bind (Json.member name j) Json.to_bool) ~default:false

let result_num name j =
  Option.value
    (Option.bind (Json.member "result" j) (fun r -> Option.bind (Json.member name r) Json.to_float))
    ~default:0.0

let tune_points_of j =
  result_num "evaluated" j +. result_num "infeasible" j +. result_num "pruned" j

let parse_exn line =
  match H.parse_request line with Ok r -> r | Error msg -> failwith ("bad request: " ^ msg)

(* One-shot replay of a request sequence through Handler, in order, on a
   fresh state: per-request service times by op, and the responses. *)
let handler_replay ?obs reqs =
  let state = H.create () in
  let parse_s = ref 0.0 and encode_s = ref 0.0 in
  let out =
    Array.map
      (fun r ->
        let t0 = now () in
        let req = parse_exn r.line in
        let t1 = now () in
        let resp = H.run state ?obs req in
        let t2 = now () in
        let line = H.response_to_string resp in
        let t3 = now () in
        parse_s := !parse_s +. (t1 -. t0);
        encode_s := !encode_s +. (t3 -. t2);
        (r.op, t3 -. t0, line))
      reqs
  in
  (out, !parse_s, !encode_s)

let pick_of_tune_response (req : H.request) j =
  match (req.H.verb, Json.member "result" j) with
  | H.Tune t, Some r -> (
      let int name v = Option.bind (Json.member name v) Json.to_int in
      match
        ( Option.bind (Json.member "best" r) (fun b ->
              let db = Option.bind (Json.member "double_buffer" b) Json.to_bool in
              match (int "grain" b, int "unroll" b, int "active_cpes" b, db) with
              | Some grain, Some unroll, Some active_cpes, Some double_buffer ->
                  Some { Kernel.grain; unroll; active_cpes; double_buffer }
              | _ -> None),
          H.tune_config t )
      with
      | Some best, Ok config ->
          Some
            {
              p_label = H.request_key req;
              p_config = config;
              p_kernel = (Registry.find_exn t.H.t_kernel).Registry.build ~scale:t.H.t_scale;
              p_best = best;
              p_best_cycles = result_num "best_cycles" j;
              p_default_cycles = result_num "default_cycles" j;
            }
      | _ -> None)
  | _ -> None

type burst_run = {
  reqs : sreq array;
  resp : string array;
  wall : float;
  points : float;  (** tune points answered *)
  refs : float list;  (** reference times right before and after the burst *)
}

(* Starting a server and one ping round trip. *)
let start_and_ping () =
  let srv = start_server () in
  write_all srv.req_w "{\"id\":-1,\"op\":\"ping\"}\n";
  let rec wait () = match read_lines srv with Some [] -> wait () | _ -> () in
  wait ();
  srv

let serve_workload ~seconds ~trace ~tiny seed =
  (* Set-up: handler state, pipes, server domain, one ping round trip,
     and stopping the server again; timed as the tune workloads' set-up
     is, once more after every burst. *)
  let setup, () = prepare (fun () -> ignore (stop_server (start_and_ping ()))) in
  let srv = start_and_ping () in
  let rng = Random.State.make [| seed; 3 |] in
  let next_point = point_cycle rng in
  let open_s = if tiny then 1.0 else if trace then seconds /. 4.0 else seconds /. 2.0 in
  let arrivals =
    let t = ref 0.0 in
    let acc = ref [] in
    while
      t := !t +. (-.log (1.0 -. Random.State.float rng 1.0) /. offered_rps);
      !t < open_s
    do
      acc := !t :: !acc
    done;
    Array.of_list (List.rev !acc)
  in
  let n_open = Array.length arrivals in
  let open_reqs =
    Array.of_list (request_stream rng ~next_point ~seed ~n:n_open ~due:(fun i -> arrivals.(i)))
  in
  let t_open = now () in
  let sent, recv, resp = drive srv open_reqs in
  let open_wall = now () -. t_open in
  (* Bursts after the open loop, each drained before the next, for as
     long as the open loop ran. *)
  let kernels = if tiny then [ List.hd Registry.tuning_subset ] else Registry.tuning_subset in
  let n_bursts = ref 0 in
  let one_burst () =
    let reqs = burst rng ~next_point ~seed ~first:(n_open + (100 * !n_bursts)) kernels in
    incr n_bursts;
    let before = reference () in
    let _, recv, resp = drive srv reqs in
    let wall = Array.fold_left Float.max 0.0 recv in
    let after = reference () in
    ignore (set_up ~ref_s:after setup);
    let points = Array.fold_left (fun a l -> a +. tune_points_of (json_of l)) 0.0 resp in
    { reqs; resp; wall; points; refs = [ before; after ] }
  in
  let bursts = if tiny then [ one_burst () ] else repeat_for open_s one_burst in
  let rss = peak_rss_mb () in
  let burst_reqs = Array.concat (List.map (fun b -> b.reqs) bursts) in
  let burst_resp = Array.concat (List.map (fun b -> b.resp) bursts) in
  let n_burst = Array.length burst_reqs in
  (* A burst lasts under half a second, over which the host's speed
     swings by as much as the reference's own noise, so the bursts are
     pooled and normalized by the median reference of the run. *)
  let burst_total f = sum (List.map f bursts) in
  let burst_wall = burst_total (fun b -> b.wall) in
  let burst_points = burst_total (fun b -> b.points) in
  let burst_ref_s = median (List.concat_map (fun b -> b.refs) bursts) in
  let sink = H.sink srv.state in
  let stats = stop_server srv in
  let all_reqs = Array.append open_reqs burst_reqs in
  let all_resp = Array.map json_of (Array.append resp burst_resp) in
  Array.iteri
    (fun i j ->
      incr attempted;
      let ok = Option.bind (Json.member "ok" j) Json.to_bool = Some true in
      if not ok then begin
        incr failed;
        Printf.printf "CHECK FAILED: request %s answered %s\n%!" all_reqs.(i).line
          (Json.to_string j)
      end)
    all_resp;
  let latencies = Array.to_list (Array.mapi (fun i r -> 1000.0 *. (recv.(i) -. r.due)) open_reqs) in
  let late =
    List.init n_open (fun i ->
        let j = all_resp.(i) in
        Option.bind (Json.member "ok" j) Json.to_bool <> Some true
        || flag "degraded" j || flag "deadline_exceeded" j
        || 1000.0 *. (recv.(i) -. open_reqs.(i).due) > latency_limit_ms)
  in
  (* Output check: a seeded sample of responses equals a one-shot
     Handler.run of the same request, on a fresh state, after
     strip_volatile. *)
  let oneshot ?degrade req = H.response_to_json (H.run (H.create ()) ?degrade req) in
  let stripped j =
    Option.map (fun r -> Json.to_string (H.strip_volatile r)) (Json.member "result" j)
  in
  let n_all = Array.length all_reqs in
  let sample = List.init (Stdlib.min 12 n_all) (fun _ -> Random.State.int rng n_all) in
  List.iter
    (fun i ->
      let req = parse_exn all_reqs.(i).line in
      let expect = oneshot ~degrade:(flag "degraded" all_resp.(i)) req in
      let show j = Option.value (stripped j) ~default:"(no result)" in
      check
        (stripped expect = stripped all_resp.(i))
        "served response to %s differs from one-shot:\n  served   %s\n  one-shot %s"
        all_reqs.(i).line (show all_resp.(i)) (show expect))
    sample;
  (* Picks: every distinct tune body of the stream, one-shot on a fresh
     state. *)
  let tunes = Hashtbl.create 16 in
  Array.iter
    (fun r ->
      let req = parse_exn r.line in
      if H.is_tune req then Hashtbl.replace tunes (H.request_key req) req)
    all_reqs;
  let picks =
    Hashtbl.fold (fun k req acc -> (k, req) :: acc) tunes []
    |> List.sort compare
    |> List.filter_map (fun (_, req) ->
           pick_of_tune_response req (oneshot req))
  in
  let counter name = Sink.counter sink name in
  let lag = tail (List.mapi (fun i s -> 1000.0 *. (s -. open_reqs.(i).due)) (Array.to_list sent)) in
  let pct, latency_tail = tail latencies in
  Printf.printf "latency: %d open-loop samples, tail = p%.1f; %d burst requests\n" n_open pct
    n_burst;
  let layer =
    [
      ("rps", float_of_int n_open /. open_wall);
      ("latency_p50_ms", median latencies);
      ("latency_tail_ms", latency_tail);
      ( "late_ratio",
        ratio (float_of_int (List.length (List.filter Fun.id late))) (float_of_int n_open) );
      ("saturation_rps", float_of_int n_burst /. burst_wall);
      ("server.batches", float_of_int stats.Server.batches);
      ("server.max_batch", float_of_int stats.Server.max_batch);
      ("server.degraded", float_of_int stats.Server.degraded);
      ("server.deadline_refused", counter "serve.deadline_exceeded");
      ( "backend.memo_hit_ratio",
        ratio (counter "memo.hits") (counter "memo.hits" +. counter "memo.misses") );
      ("host.reference_s", burst_ref_s);
      ("host.points_per_s_raw", burst_points /. burst_wall);
      ("loadgen.lag_ms_tail", snd lag);
      ("loadgen.tail_percentile", pct);
      ("sim.digest", sim_digest picks);
    ]
  in
  let layer =
    if not trace then layer
    else begin
      (* Replay the open-loop requests one-shot, untraced then traced, in
         the server's order from a fresh state. *)
      let untraced, _, _ = handler_replay open_reqs in
      set_tracing true;
      let obs = Sink.create () in
      let traced, parse_s, encode_s = with_cache_counts (fun () -> handler_replay ~obs open_reqs) in
      set_tracing false;
      let traced_lines = Array.map (fun (_, _, l) -> l) traced in
      Array.iteri
        (fun i (_, _, l) ->
          let strip l =
            Result.map
              (fun j -> Option.map H.strip_volatile (Json.member "result" j))
              (Json.parse l)
          in
          check (strip l = strip traced_lines.(i)) "traced replay of %s differs" open_reqs.(i).line)
        untraced;
      bump "handler.parse_s" parse_s;
      bump "handler.encode_s" encode_s;
      let tune_rs =
        Array.to_list traced
        |> List.filter_map (fun (op, wall, l) ->
               if op <> "tune" then None
               else Result.to_option (Json.parse l) |> Option.map (fun j -> (wall, j)))
      in
      let host j = result_num "tuning_host_s" j in
      let verify_s = sum (List.map (fun (w, j) -> w -. host j) tune_rs) in
      bump "tuner.verify_s" verify_s;
      let svc op arr =
        Array.to_list arr
        |> List.filter_map (fun (o, w, _) -> if o = op then Some (1000.0 *. w) else None)
      in
      let queue_wait =
        List.map2
          (fun lat (_, w, _) -> Float.max 0.0 (lat -. (1000.0 *. w)))
          latencies (Array.to_list untraced)
      in
      let spans, span_s = backend_spans obs in
      let total (arr : (string * float * string) array) =
        Array.fold_left (fun a (_, w, _) -> a +. w) 0.0 arr
      in
      let priced = sum (List.map (fun (_, j) -> result_num "evaluated" j) tune_rs) in
      let points = sum (List.map (fun (_, j) -> tune_points_of j) tune_rs) in
      layer
      @ traced_layers ~reps:1 ~wall_traced:(total traced)
          ~overhead_pct:(100.0 *. (ratio (total traced) (total untraced) -. 1.0))
      @ [
          ("handler.parse_s", parse_s);
          ("handler.encode_s", encode_s);
          ("handler.predict_ms_p50", median (svc "predict" untraced));
          ("handler.tune_ms_p50", median (svc "tune" untraced));
          ("handler.timeline_ms_p50", median (svc "timeline" untraced));
          ("server.queue_wait_ms_p50", median queue_wait);
          ("server.queue_wait_ms_tail", snd (tail queue_wait));
          ("backend.assess_calls", float_of_int spans);
          ("backend.assess_s", span_s);
          ("search.priced", priced);
          ("search.pruned", sum (List.map (fun (_, j) -> result_num "pruned" j) tune_rs));
          ("search.verified_share", ratio priced points);
          ("search.rank_s", sum (List.map (fun (_, j) -> result_num "rank_host_s" j) tune_rs));
          ( "search.machine_us",
            sum (List.map (fun (_, j) -> result_num "machine_time_us" j) tune_rs) );
          ("tuner.assess_s", sum (List.map (fun (_, j) -> host j) tune_rs));
          ("tuner.verify_s", verify_s);
        ]
    end
  in
  {
    setup_s = median setup.times;
    points_per_s = burst_points /. normalized ~ref_s:burst_ref_s burst_wall;
    peak_rss_mb = rss;
    model_error_pct = model_error picks;
    layer;
  }

(* ------------------------------------------------------------------ *)
(* shard-static: one large sharded model tune through Handler.tune     *)

let shard_workload ~seconds ~trace ~tiny seed =
  let req =
    {
      (H.tune_defaults ~kernel:"vector-add") with
      H.t_scale = 0.01;
      t_strategy = "shortlist";
      t_shortlist = 64;
      t_seed = Some seed;
      (* 62,592 points, 27% of them SPM-feasible *)
      t_grains = Some (if tiny then "1000..1015" else "1000..4905:8");
      t_unrolls = Some (if tiny then "1..8" else "1..64");
      t_db_both = true;
      t_workers = 2;
    }
  in
  let journals ckpt = List.init 2 (fun i -> Printf.sprintf "%s.shard%dof2" ckpt i) in
  let setup, (state, n_points, config) =
    prepare (fun () ->
        (* this executable doubles as the worker (see the entry point) *)
        Unix.putenv "SWPM_WORKER_EXE" Sys.executable_name;
        let state = H.create () in
        let entry = Registry.find_exn req.H.t_kernel in
        let points = match H.tune_points req entry with Ok p -> p | Error m -> failwith m in
        let config = match H.tune_config req with Ok c -> c | Error m -> failwith m in
        (state, float_of_int (List.length points), config))
  in
  let budget = if trace then seconds /. 2.0 else seconds in
  let counter = ref 0 in
  let merges = ref [] in
  let iters =
    repeat_for budget (fun () ->
        incr counter;
        incr attempted;
        let ckpt =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "perfbench-%d-%d.journal" (Unix.getpid ()) !counter)
        in
        let before = reference_pair () in
        let t0 = now () in
        let r = H.tune state { req with H.t_checkpoint = Some ckpt } in
        let wall = now () -. t0 in
        let after = reference_pair () in
        if trace then begin
          (* the coordinator's merge, repeated from outside on the same files *)
          let t1 = now () in
          ignore (Backend.journal_merge ~config (journals ckpt));
          merges := (now () -. t1) :: !merges
        end;
        List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (journals ckpt);
        ignore (set_up ~ref_s:(reference ()) setup);
        match r with
        | Ok tr -> Some (tr.H.tr_outcome, wall, (before +. after) /. 2.0)
        | Error msg ->
            incr failed;
            Printf.printf "CHECK FAILED: sharded tune: %s\n%!" msg;
            None)
    |> List.filter_map Fun.id
  in
  let rss = peak_rss_mb () in
  let oracle =
    match H.tune (H.create ()) { req with H.t_workers = 1; t_strategy = "exhaustive" } with
    | Ok tr -> tr.H.tr_outcome
    | Error msg -> failwith ("oracle tune: " ^ msg)
  in
  List.iter
    (fun (o, _, _) ->
      check
        (o.Tuner.best = oracle.Tuner.best && o.Tuner.best_cycles = oracle.Tuner.best_cycles
        && o.Tuner.quarantined = [])
        "sharded pick %s (%.1f cycles) differs from the single-process oracle %s (%.1f)"
        (variant_key o.Tuner.best) o.Tuner.best_cycles (variant_key oracle.Tuner.best)
        oracle.Tuner.best_cycles)
    iters;
  let kernel = (Registry.find_exn req.H.t_kernel).Registry.build ~scale:req.H.t_scale in
  (* the oracle's default is the first unroll-1 point of the space; a
     sharded search's depends on which points its workers priced *)
  let picks =
    [
      {
        p_label = "vector-add/sharded";
        p_config = config;
        p_kernel = kernel;
        p_best = oracle.Tuner.best;
        p_best_cycles = oracle.Tuner.best_cycles;
        p_default_cycles = oracle.Tuner.default_cycles;
      };
    ]
  in
  let per_iter f = mean (List.map (fun (o, _, _) -> f o) iters) in
  let layer =
    [
      ("sim.digest", sim_digest picks);
      ("shard.restarts", per_iter (fun o -> float_of_int o.Tuner.restarts));
      ("shard.lines_dropped", per_iter (fun o -> float_of_int o.Tuner.link_lines_dropped));
      ("shard.worker_cpu_s", per_iter (fun o -> o.Tuner.tuning_cpu_s));
      ("backend.journal_hits", per_iter (fun o -> float_of_int o.Tuner.journal_hits));
      ("backend.journal_misses", per_iter (fun o -> float_of_int o.Tuner.journal_misses));
    ]
  in
  let layer =
    if not trace then layer
    else begin
      (* The workers are other processes: the layer account runs the same
         shortlist search in this process, alternating untraced and traced
         runs, each from cold caches as a fresh worker starts. *)
      let points =
        match H.tune_points req (Registry.find_exn req.H.t_kernel) with
        | Ok p -> p
        | Error m -> failwith m
      in
      (* what a worker runs: the raw model ranks, its memoized twin verifies *)
      let in_process ?obs () =
        let model = Backend.find_exn "model" in
        let strategy = Search.shortlist ~rank:model ~k:req.H.t_shortlist () in
        let backend = Backend.memoized (Backend.memoize model) in
        let t0 = now () in
        let o = Tuner.tune_exn ~backend ~strategy ?obs config kernel ~points in
        (o, now () -. t0)
      in
      let obs = Sink.create () in
      let pairs =
        List.init 2 (fun _ ->
            clear_caches ();
            let _, untraced_wall = in_process () in
            set_tracing true;
            clear_caches ();
            let traced = with_cache_counts (fun () -> in_process ~obs ()) in
            set_tracing false;
            (untraced_wall, traced))
      in
      let traced = List.map snd pairs in
      List.iter
        (fun (o, _) ->
          check (o.Tuner.best = oracle.Tuner.best) "traced in-process pick differs from the oracle")
        traced;
      let per f = mean (List.map f traced) in
      let verify_s = sum (List.map (fun (o, wall) -> wall -. o.Tuner.tuning_host_s) traced) in
      bump "tuner.verify_s" verify_s;
      let spans, span_s = backend_spans obs in
      let walls = List.map snd traced in
      layer
      @ traced_layers ~reps:2 ~wall_traced:(sum walls)
          ~overhead_pct:(100.0 *. (ratio (median walls) (median (List.map fst pairs)) -. 1.0))
      @ [
          ("shard.merge_s", median !merges);
          ("search.priced", per (fun (o, _) -> float_of_int o.Tuner.evaluated));
          ("search.pruned", per (fun (o, _) -> float_of_int o.Tuner.points_pruned));
          ("search.verified_share", per (fun (o, _) -> float_of_int o.Tuner.evaluated) /. n_points);
          ("search.rank_s", per (fun (o, _) -> o.Tuner.rank_host_s));
          ("search.machine_us", per (fun (o, _) -> o.Tuner.machine_time_us));
          ("tuner.assess_s", per (fun (o, _) -> o.Tuner.tuning_host_s));
          ("tuner.verify_s", verify_s /. 2.0);
          ("backend.assess_calls", float_of_int spans /. 2.0);
          ("backend.assess_s", span_s /. 2.0);
        ]
    end
  in
  {
    setup_s = median setup.times;
    points_per_s =
      median (List.map (fun (_, wall, ref_s) -> n_points /. normalized ~ref_s wall) iters);
    peak_rss_mb = rss;
    model_error_pct = model_error picks;
    layer =
      layer
      @ host_layers
          ~raw_points_per_s:(median (List.map (fun (_, wall, _) -> n_points /. wall) iters))
          (List.map (fun (_, _, r) -> r) iters);
  }

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let workloads =
  [
    ("static-dense", tune_workload ~jobs_of:static_dense_jobs ~extra_checks:ignore);
    ("empirical-table2", tune_workload ~jobs_of:empirical_jobs ~extra_checks:check_strategies);
    ("serve-mixed", serve_workload);
    ("shard-static", shard_workload);
  ]

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  match Array.to_list Sys.argv with
  | [ _; "reference" ] -> Printf.printf "%.17g\n" (reference_loop ())
  | _ :: "shard-worker" :: "--spec" :: spec :: _ -> (
      match H.worker_main spec with
      | Ok () -> ()
      | Error msg ->
          prerr_endline ("perfbench shard-worker: " ^ msg);
          exit 1)
  | _ ->
      let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
      let tiny = ref false in
      let usage =
        "perfbench --workload ("
        ^ String.concat "|" (List.map fst workloads)
        ^ ") --seed N --seconds S --trace 0|1 [--size tiny]"
      in
      Arg.parse
        [
          ("--workload", Arg.Set_string workload, "NAME workload to run");
          ("--seed", Arg.Set_int seed, "N input seed");
          ("--seconds", Arg.Set_float seconds, "S measurement time");
          ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
          ( "--size",
            Arg.Symbol ([ "full"; "tiny" ], fun s -> tiny := s = "tiny"),
            " input size (tiny: smoke test)" );
        ]
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        usage;
      let run =
        match List.assoc_opt !workload workloads with
        | Some run when !trace = 0 || !trace = 1 -> run
        | _ ->
            prerr_endline usage;
            exit 2
      in
      let trace = !trace = 1 in
      let r = run ~seconds:!seconds ~trace ~tiny:!tiny !seed in
      let units = if trace then per_layer else end_to_end in
      let value name =
        match name with
        | "setup_s" -> r.setup_s
        | "points_per_s" -> r.points_per_s
        | "peak_rss_mb" -> r.peak_rss_mb
        | "model_error_pct" -> r.model_error_pct
        | "check.fail_ratio" -> ratio (float_of_int !failed) (float_of_int !attempted)
        | _ -> Option.value (List.assoc_opt name r.layer) ~default:0.0
      in
      let metrics = List.map (fun (name, unit) -> (name, value name, unit)) units in
      Printf.printf "workload %s, seed %d, %s run; host reference %.4f s, raw points_per_s %.6g\n"
        !workload !seed
        (if trace then "traced" else "untraced")
        (Option.value (List.assoc_opt "host.reference_s" r.layer) ~default:0.0)
        (Option.value (List.assoc_opt "host.points_per_s_raw" r.layer) ~default:0.0);
      List.iter
        (fun (name, v, unit) -> Printf.printf "  %-28s %s %s\n" name (number v) unit)
        metrics;
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
        (!failed = 0) (Stdlib.max 1 !attempted) !failed
        (String.concat ", "
           (List.map
              (fun (name, v, unit) ->
                Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
              metrics));
      if !failed > 0 then exit 1
