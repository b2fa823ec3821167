(** Lowering: kernel + tuning variant to per-CPE executable programs.

    Mirrors the SWACC compiler's CPE-side code generation (Figure 3 of
    the paper): per chunk, issue one DMA per consecutive region of each
    copied-in array, wait, run the computation (with per-element Gloads
    for irregular kernels), issue the copy-out DMAs, wait.  The
    double-buffer variant issues the next chunk's copy-in before
    computing on the current one, using two SPM buffers and four DMA
    tags.

    Lowering fails (with [Error]) rather than silently producing an
    infeasible program when the chunk does not fit the SPM or the
    variant asks for more CPEs than the machine has. *)

val lower :
  Sw_arch.Params.t -> Kernel.t -> Kernel.variant -> (Lowered.t, string) result
(** The summary plus one {!Sw_isa.Flat.t} per active CPE, emitted
    straight into the simulator's executable form: no item trees, no
    validation pass, no second compile walk.  The programs are built
    from the same memoized halves as the summary — compute costs are
    scheduled once per lowering from the unroll half's blocks, and DMA
    rows are copied from a residue table in the grain half (one period
    of full-chunk rows per (kernel, trans_size, n_cgs, grain), plus the
    tail chunk's), with arrays sized from closed-form counts.  The
    result is structurally equal to
    [Sw_sim.Engine.compile] applied to {!Lower_ref.lower}'s item trees;
    the differential tests and [bench lower] check it.  Beyond {!check},
    a kernel whose Gloads are wider than [gload_max_bytes] is refused
    ({!check_gloads}). *)

val lower_exn : Sw_arch.Params.t -> Kernel.t -> Kernel.variant -> Lowered.t
(** @raise Invalid_argument when {!lower} returns [Error]. *)

val summarize :
  Sw_arch.Params.t -> Kernel.t -> Kernel.variant -> (Lowered.summary, string) result
(** The compile-time half of {!lower}: the static summary, without
    materializing per-CPE programs.  This is all a static tuner needs to
    assess a variant, and is what makes model assessment so much cheaper
    than a profiling run.

    The summary joins two memoized halves, one per axis it depends on.
    The {e unroll half} is the (unrolled, remainder) code-block pair,
    keyed on the kernel and the unroll.  The {e grain half} is the
    longest-path element count, the DMA-group histogram and the Gload
    total, keyed on the kernel, the transaction size, the grain and the
    effective active CPEs; it is computed in closed form (one period of
    chunk alignments plus the tail chunk; per-kernel prefix sums of
    irregular Gload counts), never by walking every chunk.  Double
    buffering only sets a flag.  {!lower} builds its summary from the
    same halves, and {!Lower_ref.summarize} is the enumerating oracle
    it must equal. *)

val check : Sw_arch.Params.t -> Kernel.t -> Kernel.variant -> (int, string) result
(** Validate a variant against the machine: positive knobs, no more CPEs
    than the machine has, and a chunk (doubled under double buffering)
    that fits the SPM.  [Ok] carries the SPM bytes needed. *)

val check_gloads : Sw_arch.Params.t -> Kernel.t -> (unit, string) result
(** Refuse a kernel whose Gloads (irregular, or 8-byte compiler spills)
    exceed the machine's [gload_max_bytes] — the one check the
    simulator's program validation made that lowering must now make
    itself. *)

val spm_required : Kernel.t -> Kernel.variant -> int
(** SPM bytes the variant needs (doubled under double buffering). *)

(** {1 Caches}

    Lowering and both summary halves are pure, so their results are
    shared process-wide.  A key holding a kernel compares it
    {e physically} — a [Kernel.t] carries gload closures, so only
    pointer identity is a sound key; sweeps hold one kernel value
    across all points, which is exactly when sharing pays.  Every table
    is mutex-guarded (safe under {!Sw_util.Pool} fan-out) and
    FIFO-bounded, sized for the working set of a tuning sweep.  Both
    [Ok] and [Error] (infeasible) lowerings are cached. *)

val lower_cached :
  Sw_arch.Params.t -> Kernel.t -> Kernel.variant -> (Lowered.t, string) result
(** {!lower} through the cache: a backend assessment and the tuner's
    winner/default re-runs of the same variant lower once. *)

val lower_cached_exn : Sw_arch.Params.t -> Kernel.t -> Kernel.variant -> Lowered.t
(** @raise Invalid_argument when {!lower_cached} returns [Error]. *)

val clear_cache : unit -> unit
(** Drop all cached lowerings, summary halves and DMA rows, and zero the
    lowering hit/miss counters (cold-run benchmarking). *)

val cache_stats : unit -> int * int
(** Lowering-cache [(hits, misses)] since creation or {!clear_cache}. *)
