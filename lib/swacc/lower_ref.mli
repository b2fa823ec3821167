(** The preserved enumerating static summary.

    This is the reference semantics for {!Lower.summarize}: it builds
    the summary by walking every chunk of every CPE, tallying each
    copied array's request (one transaction count per strided row),
    summing per-element Gload counts one element at a time, and
    generating code blocks afresh, with no memo table.  The factored
    {!Lower.summarize} must return a structurally equal summary (or the
    same [Error]) on every input.  The differential tests and the
    [bench static] section (speed gate, BENCH_static.json) run both;
    nothing else should call this module.  Kept deliberately
    unoptimized. *)

val summarize :
  Sw_arch.Params.t -> Kernel.t -> Kernel.variant -> (Lowered.summary, string) result
