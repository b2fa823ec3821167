module Engine = Sw_sim.Engine
module Metrics = Sw_sim.Metrics
module Lowered = Sw_swacc.Lowered

(* Finished runs, keyed first on the identity of the lowering — an
   ephemeron key, so an entry dies with its lowering and a fresh
   lowering (every [Lower.clear_cache] makes them fresh) starts with
   nothing — then on the structurally equal configuration.  The hash
   only spreads keys; equality is physical. *)
module Runs = Ephemeron.K1.Make (struct
  type t = Lowered.t

  let equal = ( == )

  let hash (l : t) =
    Hashtbl.hash (l.Lowered.kernel_name, l.Lowered.spm_bytes_per_cpe, Array.length l.Lowered.programs)
end)

let runs : (Sw_sim.Config.t * Metrics.t) list Runs.t = Runs.create 64

let lock = Mutex.create ()

let hits = Atomic.make 0

let misses = Atomic.make 0

let cache_stats () = (Atomic.get hits, Atomic.get misses)

let find config lowered =
  Mutex.protect lock (fun () ->
      Option.bind (Runs.find_opt runs lowered) (List.assoc_opt config))

let store config lowered m =
  Mutex.protect lock (fun () ->
      let known = Option.value (Runs.find_opt runs lowered) ~default:[] in
      if not (List.mem_assoc config known) then Runs.replace runs lowered ((config, m) :: known))

(* Callers get their own arrays, so none can corrupt a stored run. *)
let copy (m : Metrics.t) =
  {
    m with
    Metrics.per_cpe_finish = Array.copy m.Metrics.per_cpe_finish;
    mc_busy_cycles = Array.copy m.Metrics.mc_busy_cycles;
  }

let run_budget ?cutoff ?event_budget config (lowered : Lowered.t) =
  (* a stored run answers a budgeted query only when the budgeted run
     would have finished too: every event it processed is within the
     (strict) cutoff and the budget covers all of them *)
  let exact (m : Metrics.t) =
    (match cutoff with Some c -> m.Metrics.last_event_at <= c | None -> true)
    && match event_budget with Some b -> m.Metrics.events <= b | None -> true
  in
  match find config lowered with
  | Some m when exact m ->
      Atomic.incr hits;
      Engine.Finished (copy m)
  | _ -> (
      Atomic.incr misses;
      match Engine.run_budget ?cutoff ?event_budget config lowered.Lowered.programs with
      | Engine.Finished m ->
          store config lowered m;
          Engine.Finished (copy m)
      | Engine.Cutoff _ as cut -> cut)

let metrics config lowered =
  match run_budget config lowered with
  | Engine.Finished m -> m
  | Engine.Cutoff _ -> assert false (* unreachable without a budget *)

let cycles config lowered = (metrics config lowered).Metrics.cycles

let us (config : Sw_sim.Config.t) ~cycles =
  Sw_util.Units.cycles_to_us
    ~freq_hz:config.Sw_sim.Config.params.Sw_arch.Params.freq_hz cycles
