(** Discrete-event, transaction-level simulator of SW26010 core groups.

    This is the repository's stand-in for the real hardware: it executes
    one {!Sw_isa.Flat.t} per active CPE and measures wall-clock cycles.
    Mechanisms modelled:

    - per-CPE in-order execution using the static schedule for compute
      blocks (the cache-less CPE makes compute timing deterministic);
    - per-CPE DMA engines that emit one DRAM transaction every
      [delta_delay] cycles per request;
    - one FCFS memory controller per core group serving one [trans_size]
      transaction every [trans_size / bytes_per_cycle] cycles (the
      bandwidth limit), with [l_base] round-trip latency;
    - blocking Gload/Gstore requests that occupy a full transaction no
      matter how few bytes they move;
    - round-robin cross-section memory across core groups, with a small
      NoC penalty for remote transactions;
    - CPE-side overheads for DMA issue/wait and loop control, plus
      deterministic start-time jitter (see {!Config}).

    Calibration (covered by tests): with zero overheads, a single
    1-transaction DMA completes in [l_base] cycles; an [n]-transaction
    request in [l_base + (n-1) * delta_delay] cycles; sustained
    throughput equals [mem_bw]. *)

exception Deadlock of string
(** Raised when no event can make progress (e.g. waiting on a DMA tag
    that was never issued). *)

exception Event_limit
(** Raised when [max_events] is exceeded. *)

val compile : Config.t -> Sw_isa.Program.t array -> Sw_isa.Flat.t array
(** [compile config programs] converts hand-written programs into the
    flat form the run functions execute — the one bridge from
    {!Sw_isa.Program.t} trees (the lowering pass emits flat programs
    directly).  It rejects exactly what the reference engine rejects,
    in the same order and with the same messages: an invalid [config]
    ({!Config.Invalid_config}), no programs, more programs than CPEs,
    and then the first program failing {!Sw_isa.Program.validate}
    ([Invalid_argument]).  Block costs are scheduled once per distinct
    block through the {!Sw_isa.Schedule} cache. *)

val run : Config.t -> Sw_isa.Flat.t array -> Metrics.t
(** [run config programs] simulates [programs] (element [i] runs on
    CPE [i], which belongs to core group [i / cpes_per_cg]).
    @raise Invalid_argument for no programs, more programs than CPEs,
    or a program built for different parameters than [config.params]
    (the message names the first differing {!Sw_isa.Flat.baked}
    field). *)

val clear_compile_cache : unit -> unit
(** A no-op, kept for callers that cleared the engine's former
    compile cache: flat programs are built once by their producer
    (the lowering pass memoizes them) and the engine caches nothing. *)

(** Outcome of a budgeted run: either complete metrics, or a typed
    abandonment carrying how far the run got. *)
type run_result =
  | Finished of Metrics.t
  | Cutoff of { at : float; events : int }
      (** The run was abandoned: the next event's clock [at] (a lower
          bound on the final makespan, since the heap pops events in
          time order) passed the [cutoff], or [event_budget] events had
          been processed.  [events] is the number actually processed. *)

val run_budget :
  ?cutoff:float ->
  ?event_budget:int ->
  Config.t ->
  Sw_isa.Flat.t array ->
  run_result
(** {!run} with early exit.  [cutoff] abandons the run as soon as the
    event clock strictly exceeds it — a run whose makespan exactly
    equals [cutoff] still finishes, so an incumbent-based pruned search
    preserves exhaustive search's earliest-index tie-break.
    [event_budget] bounds the number of events processed (no search
    strategy sets it; it stays for external budgeted callers); unlike
    [config.max_events]
    — which still raises {!Event_limit} as a runaway guard — exhausting
    it returns [Cutoff], not an exception.  Without either option the
    result is always [Finished]. *)

val run_traced : Config.t -> Sw_isa.Flat.t array -> Metrics.t * Trace.t
(** Like {!run}, additionally recording per-CPE activity spans (compute,
    DMA stalls, Gload stalls) for {!Trace.render}. *)

val run_traced_full :
  Config.t ->
  Sw_isa.Flat.t array ->
  Metrics.t * Trace.t * Trace.dma_req list * Trace.dma_retry list
(** {!run_traced} plus the lifetime (issue clock to completion clock)
    of every DMA request, in completion order — the async-arrow layer
    of a Chrome trace — and, when {!Config.faults} injects transient
    DMA failures, one {!Trace.dma_retry} per failed admission, in
    failure order (empty for a fault-free run). *)
