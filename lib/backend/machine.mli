(** The one sanctioned doorway from estimator land to the machine.

    Every consumer that wants a "measured" number — the simulator
    standing in for the real SW26010 — goes through this module (or
    through the {!Backend.simulator} backend built on it).  Direct
    [Sw_sim.Engine.run] calls are confined to [lib/sim] itself, this
    library, and the traced-timeline paths; keeping the doorway narrow
    is what lets the cost-backend layer account for every simulated
    cycle the repository spends.

    {1 The result memo}

    A lowering is simulated at most once per configuration for as long
    as it lives.  Finished runs are stored under two keys:

    - the {e identity} of the {!Sw_swacc.Lowered.t} value (an
      ephemeron key: the entry dies with the lowering, so a fresh
      lowering — and every {!Sw_swacc.Lower.clear_cache} makes them
      fresh — is a fresh simulation);
    - a structurally equal {!Sw_sim.Config.t} (machine parameters,
      overheads, jitter seed and fault plan).

    A stored run answers a query only when the answer is exact: with
    no budget, or when the run's last event is within the [cutoff]
    ([last_event_at <= cutoff], since the engine's check is a strict
    [>]) and it processed at most [event_budget] events.  Any other
    budgeted query re-simulates and is cut off as before; cut-off runs,
    and runs that raise, are never stored.  Every answer carries its
    own copies of [per_cpe_finish] and [mc_busy_cycles].  Traced runs
    ([Sw_sim.Engine.run_traced] and the probes built on it) do not come
    through here and are never memoized.  The memo is mutex-guarded,
    safe under {!Sw_util.Pool} fan-out, and has no switch: a hit returns
    exactly what the engine would. *)

val metrics : Sw_sim.Config.t -> Sw_swacc.Lowered.t -> Sw_sim.Metrics.t
(** Run the lowered kernel's per-CPE programs on the simulator. *)

val cycles : Sw_sim.Config.t -> Sw_swacc.Lowered.t -> float
(** Makespan of {!metrics} — the repository's former
    [(Engine.run config lowered.programs).Metrics.cycles] idiom. *)

val run_budget :
  ?cutoff:float ->
  ?event_budget:int ->
  Sw_sim.Config.t ->
  Sw_swacc.Lowered.t ->
  Sw_sim.Engine.run_result
(** Budgeted measurement for pruned searches — {!Sw_sim.Engine.run_budget}
    through the doorway (and the memo): abandon (typed [Cutoff]) once
    the event clock strictly passes [cutoff] or [event_budget] events
    have been processed. *)

val cache_stats : unit -> int * int
(** Result-memo [(hits, misses)] since the process started; a miss is
    one engine run.  Take differences around the work being counted. *)

val us : Sw_sim.Config.t -> cycles:float -> float
(** Simulated machine microseconds for [cycles] at the configured
    frequency. *)
