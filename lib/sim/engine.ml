(* The optimized discrete-event core.  Observable behavior — metrics,
   spans, DMA request lifetimes, retry events, cutoff points, event
   counts, exception messages — is bit-identical to {!Engine_ref} (the
   preserved original) on every input; the differential tests and the
   golden traces enforce this.  What changed is purely mechanical:

   - Events live in a {!Sw_util.Calendar_queue}: an O(1) bucketed
     queue over a flat preallocated arena, with integer event codes
     [(payload lsl 2) lor kind] instead of boxed [ev] variants, and
     the same (time, global push sequence) FIFO tie-break as the old
     {!Sw_util.Heap} — determinism survives by construction.
   - Programs run in the flat struct-of-arrays {!Sw_isa.Flat} form —
     parallel [int array]/[float array] fields walked sequentially, no
     per-item heap records to pointer-chase — with every constant the
     interpreter would otherwise recompute per execution folded in:
     per-block costs, per-controller transaction histograms, stream
     lengths, payload bytes, dense tag ids (the original tag rides
     along for trace recorders).  The lowering pass emits this form
     directly and memoizes it; [compile] builds it from hand-written
     item trees.  Whether a request touches a remote controller is
     read off its histogram at admission, so a flat program does not
     depend on its CPE's home core group.
   - DMA requests are parallel arrays in a pool with a free-list, so
     a request slot is recycled at [Req_done] and steady-state
     simulation allocates nothing on the minor heap.
   - All same-timestamp [Req_admit] events at the head of the queue
     are drained in one pass after an admission, short-circuiting the
     outer loop (ordering is unchanged: only events the old loop would
     pop next anyway are drained).
   - Floats cross function boundaries through one-element scratch
     arrays ([tbuf]/[pbuf]/[qbuf]/[gbuf]) and handlers re-read inputs
     per branch, so the no-observer path boxes no floats and invokes
     no closures per event.

   Float arithmetic is kept in the reference's exact operation order
   (e.g. [latest +. tail +. l_base +. noc] as three separate adds) so
   results are bit-identical, not merely close. *)

module Program = Sw_isa.Program
module Flat = Sw_isa.Flat
module Mem_req = Sw_arch.Mem_req
module Cq = Sw_util.Calendar_queue

exception Deadlock of string

exception Event_limit

type run_result = Finished of Metrics.t | Cutoff of { at : float; events : int }

(* ------------------------------------------------------------------ *)
(* Entry checks, shared by [compile] and the run functions so both
   reject a bad fleet with the reference's messages, in its order. *)

let check_fleet (config : Config.t) n =
  let p = config.params in
  (match Config.validate config with
  | Ok _ -> ()
  | Error msg -> raise (Config.Invalid_config ("Engine.run: " ^ msg)));
  if n = 0 then invalid_arg "Engine.run: no programs";
  if n > Sw_arch.Params.total_cpes p then
    invalid_arg
      (Printf.sprintf "Engine.run: %d programs but only %d CPEs configured" n
         (Sw_arch.Params.total_cpes p))

(* ------------------------------------------------------------------ *)
(* Compiling hand-written programs into {!Sw_isa.Flat} form.

   [Program.item] trees become a flat pre-order item stream: a
   [Repeat]'s body immediately follows it and its span is recorded, so
   entering a loop is a frame push and skipping it an index add.  The
   lowering pass emits the same form directly; this is the bridge for
   programs written by hand (tests, the assembler).

   Items the reference engine treats as complete no-ops (zero-trip
   computes/repeats — rejected by [Program.validate] anyway) are
   dropped, but a [Repeat] whose *original* body is non-empty is kept
   even when its compiled body is empty: the reference charges
   [loop_overhead] per iteration of such a loop, and so must we. *)

(* per-compile memo of block -> cost-table id by physical identity:
   fleets share block arrays, and the structural hashtable lookup inside
   [Table.intern] deep-compares the whole instruction array on a hit *)
let rec assq_block (block : Sw_isa.Instr.t array) = function
  | [] -> -1
  | (b, id) :: tl -> if b == block then id else assq_block block tl

let compile_program (p : Sw_arch.Params.t) baked table bcache (prog : Program.t) =
  let ncgs = p.n_cgs in
  (* pass 1: sizes *)
  let n_items = ref 0 and n_dma = ref 0 and max_depth = ref 1 in
  let rec count depth (items : Program.item array) =
    if depth > !max_depth then max_depth := depth;
    Array.iter
      (fun (item : Program.item) ->
        match item with
        | Program.Compute { trips; _ } -> if trips > 0 then incr n_items
        | Program.Repeat { trips; body } ->
            if trips > 0 && Array.length body > 0 then begin
              incr n_items;
              count (depth + 1) body
            end
        | Program.Dma_issue _ ->
            incr n_items;
            incr n_dma
        | Program.Dma_wait _ | Program.Dma_wait_all -> incr n_items
        | Program.Gload _ | Program.Gstore _ -> incr n_items)
      items
  in
  count 1 prog;
  let b = Flat.builder baked ~items:!n_items ~rows:!n_dma in
  let pmtmp = Array.make ncgs 0 in
  (* pass 2: fill, same walk order as pass 1 *)
  let rec fill (items : Program.item array) =
    Array.iter
      (fun (item : Program.item) ->
        match item with
        | Program.Compute { block; trips } ->
            if trips > 0 then begin
              let id =
                match assq_block block !bcache with
                | -1 ->
                    let id = Sw_isa.Schedule.Table.intern (Lazy.force table) block in
                    bcache := (block, id) :: !bcache;
                    id
                | id -> id
              in
              Flat.compute b (Sw_isa.Schedule.Table.iterated (Lazy.force table) id ~trips)
            end
        | Program.Repeat { trips; body } ->
            if trips > 0 && Array.length body > 0 then begin
              let self = Flat.repeat_open b ~trips in
              fill body;
              Flat.repeat_close b self
            end
        | Program.Dma_issue ({ tag; _ } as d) ->
            Array.fill pmtmp 0 ncgs 0;
            List.iter
              (fun access ->
                Mem_req.count_per_cg ~trans_size:p.trans_size ~n_cgs:ncgs access pmtmp)
              d.Program.accesses;
            Flat.dma_issue b ~tag ~payload:(Program.dma_payload d) pmtmp 0
        | Program.Dma_wait tag -> Flat.dma_wait b tag
        | Program.Dma_wait_all -> Flat.wait_all b
        | Program.Gload { addr; bytes } | Program.Gstore { addr; bytes } ->
            Flat.gload b ~addr ~bytes)
      items
  in
  fill prog;
  Flat.finish b ~depth:!max_depth

let compile (config : Config.t) programs =
  let p = config.params in
  check_fleet config (Array.length programs);
  (* every program validates before any is compiled, so rejection order
     matches the reference *)
  Array.iteri
    (fun i prog ->
      match Program.validate p prog with
      | Ok () -> ()
      | Error msg -> invalid_arg (Printf.sprintf "Engine.run: program %d invalid: %s" i msg))
    programs;
  (* per-block costs flow through the process-wide cache of
     {!Sw_isa.Schedule}, once per distinct block per compile *)
  let table = lazy (Sw_isa.Schedule.Table.create p) in
  let bcache = ref [] in
  let baked = Flat.baked_of p in
  Array.map (compile_program p baked table bcache) programs

(* Flat programs are built by their producers; nothing is cached here. *)
let clear_compile_cache () = ()

let dummy_flat = Flat.finish (Flat.builder (Flat.baked_of Sw_arch.Params.default) ~items:0 ~rows:0) ~depth:1

(* ------------------------------------------------------------------ *)
(* Run state: struct-of-arrays so every hot field is an unboxed slot in
   a [float array]/[int array] — no per-CPE records, no mutable float
   fields (which box on every store). *)

(* event kinds, packed into the low two bits of the event code *)
let ev_step = 0

let ev_admit = 1

let ev_done = 2

let ev_gload = 3

(* blocked states *)
let b_none = 0

let b_tag = 1

let b_all = 2

let b_gload = 3

type state = {
  recorder : (Trace.span -> unit) option;
  req_recorder : (Trace.dma_req -> unit) option;
  retry_recorder : (Trace.dma_retry -> unit) option;
  (* per-CPE state *)
  cp_prog : Flat.t array;
  cp_home : int array;
  cp_now : float array;
  cp_engine_free : float array;
  cp_comp : float array;
  cp_gload_wait : float array;
  cp_dma_wait : float array;
  cp_finish : float array;
  cp_finished : bool array;
  cp_blocked : int array;
  cp_blocked_tag : int array;  (* dense tag when blocked = b_tag *)
  cp_blocked_start : float array;
  cp_gload_addr : int array;
  cp_outst : int array array;  (* outstanding DMAs per dense tag *)
  cp_outst_total : int array;
  cp_fstart : int array array;  (* frame stack: body start index per level *)
  cp_fend : int array array;  (* frame stack: body end index per level *)
  cp_fidx : int array array;  (* frame stack: next item index *)
  cp_frem : int array array;  (* frame stack: remaining iterations *)
  cp_depth : int array;
  (* memory controllers *)
  mc_bw : float array;
  mc_busy : float array;
  (* DMA request pool: parallel arrays plus a free-list stack *)
  mutable rq_cap : int;
  mutable rq_cpe : int array;
  mutable rq_attempts : int array;
  mutable rq_issue : float array;
  mutable rq_comp : Flat.t array;  (* the request's program *)
  mutable rq_row : int array;  (* the request's row in it *)
  mutable rq_free : int array;
  mutable rq_free_top : int;
  events : Cq.t;
  (* one-element scratch buffers: floats cross function boundaries in
     these, never as arguments or results (which would box) *)
  tbuf : float array;  (* time of the event being handled *)
  pbuf : float array;  (* push scratch *)
  qbuf : float array;  (* peek scratch for admission draining *)
  gbuf : float array;  (* latest-grant scratch *)
  acc : float array;  (* 0: total backoff cycles *)
  (* constants hoisted out of the loop (values identical to the
     per-use [float_of_int]s of the reference engine) *)
  k_issue : float;
  k_wait : float;
  k_loop : float;
  k_ttx : float;
  k_lbase : float;
  k_noc : float;
  k_trans_size : int;
  k_ncgs : int;
  k_fail_prob : float;
  k_max_retries : int;
  k_backoff_base : int;
  fault_dma : bool;  (* faults active and dma_fail_prob > 0 *)
  fault_prng : Sw_util.Prng.t;
  slowdown : float array;
  throttles : Config.mc_throttle list array;
  mutable retries : int;
  mutable transactions : int;
  mutable payload_bytes : int;
  mutable dma_requests : int;
  mutable gload_requests : int;
  mutable processed : int;
}

let[@inline] fmax (a : float) (b : float) = if a >= b then a else b

(* The bandwidth multiplier a throttled controller applies to a grant
   starting at [at]: the deepest factor of any window covering it.
   Only called on the fault path (throttle list non-empty). *)
let throttle_factor st mc_id ~at =
  List.fold_left
    (fun acc (w : Config.mc_throttle) ->
      if at >= w.Config.from_cycle && at < w.Config.until_cycle then
        Stdlib.min acc w.Config.bw_factor
      else acc)
    1.0 st.throttles.(mc_id)

(* Grant [m] transactions on one controller at the current event time
   ([tbuf]); folds the grant time into [gbuf] (the latest-grant max).
   The untrottled fast path skips the [/. 1.0] — bit-identical. *)
let grant_upd st mc m =
  let at = Array.unsafe_get st.tbuf 0 in
  let bw = Array.unsafe_get st.mc_bw mc in
  let start = if bw >= at then bw else at in
  let ttx =
    match st.throttles.(mc) with
    | [] -> st.k_ttx
    | _ :: _ -> st.k_ttx /. throttle_factor st mc ~at:start
  in
  let fm = float_of_int m in
  Array.unsafe_set st.mc_bw mc (start +. (fm *. ttx));
  Array.unsafe_set st.mc_busy mc (Array.unsafe_get st.mc_busy mc +. (fm *. ttx));
  st.transactions <- st.transactions + m;
  if start > Array.unsafe_get st.gbuf 0 then Array.unsafe_set st.gbuf 0 start

(* With faults injected, a request may transiently fail admission (see
   Engine_ref).  The PRNG is consumed under exactly the reference's
   short-circuit conditions, so the same seed replays the same
   failures. *)
let admit_fails st r =
  st.fault_dma
  && st.rq_attempts.(r) < st.k_max_retries
  && Sw_util.Prng.float st.fault_prng 1.0 < st.k_fail_prob

let rq_alloc st =
  if st.rq_free_top = 0 then begin
    let cap = st.rq_cap in
    let ncap = cap * 2 in
    let grow_i a =
      let b = Array.make ncap 0 in
      Array.blit a 0 b 0 cap;
      b
    in
    let b = Array.make ncap dummy_flat in
    Array.blit st.rq_comp 0 b 0 cap;
    st.rq_comp <- b;
    let bf = Array.make ncap 0.0 in
    Array.blit st.rq_issue 0 bf 0 cap;
    st.rq_issue <- bf;
    st.rq_cpe <- grow_i st.rq_cpe;
    st.rq_attempts <- grow_i st.rq_attempts;
    st.rq_row <- grow_i st.rq_row;
    (* the new upper half becomes the free list *)
    let fl = Array.make ncap 0 in
    for k = 0 to cap - 1 do
      fl.(k) <- ncap - 1 - k
    done;
    st.rq_free <- fl;
    st.rq_free_top <- cap;
    st.rq_cap <- ncap
  end;
  st.rq_free_top <- st.rq_free_top - 1;
  st.rq_free.(st.rq_free_top)

(* Execute one CPE until it blocks or finishes.  Top-level recursion
   (a local closure would allocate per call); the frame-stack arrays of
   the CPE are threaded as arguments so the loop doesn't re-chase
   [st.cp_fidx.(i)] etc. on every item.  Unsafe accesses: [i] came out
   of an event code this engine pushed (so [i < n]), item indices are
   bounded by the frame ends the lowering computed, and rows/tags are
   in range by construction of [Flat.t]; the differential suite runs
   every op through these paths against the reference. *)
let rec exec st i k (fstart : int array) (fend : int array) (fidx : int array)
    (frem : int array) d =
  if d = 0 then begin
    Array.unsafe_set st.cp_finished i true;
    Array.unsafe_set st.cp_finish i (Array.unsafe_get st.cp_now i)
  end
  else begin
    let lvl = d - 1 in
    let idx = Array.unsafe_get fidx lvl in
    if idx >= Array.unsafe_get fend lvl then begin
      let rem = Array.unsafe_get frem lvl - 1 in
      Array.unsafe_set frem lvl rem;
      if rem > 0 then begin
        Array.unsafe_set fidx lvl (Array.unsafe_get fstart lvl);
        Array.unsafe_set st.cp_now i (Array.unsafe_get st.cp_now i +. st.k_loop);
        exec st i k fstart fend fidx frem d
      end
      else begin
        Array.unsafe_set st.cp_depth i lvl;
        exec st i k fstart fend fidx frem lvl
      end
    end
    else begin
      Array.unsafe_set fidx lvl (idx + 1);
      let op = Array.unsafe_get k.Flat.c_op idx in
      if op = Flat.op_compute then begin
        (* branch on the recorder first: in the None arm the cost is
           only ever used unboxed *)
        (match st.recorder with
        | Some record ->
            let cost = k.Flat.c_cost.(idx) *. st.slowdown.(i) in
            if cost > 0.0 then begin
              let t0 = st.cp_now.(i) in
              record { Trace.cpe = i; kind = Trace.Compute; t0; t1 = t0 +. cost }
            end;
            st.cp_now.(i) <- st.cp_now.(i) +. cost;
            st.cp_comp.(i) <- st.cp_comp.(i) +. cost
        | None ->
            let cost = Array.unsafe_get k.Flat.c_cost idx *. Array.unsafe_get st.slowdown i in
            Array.unsafe_set st.cp_now i (Array.unsafe_get st.cp_now i +. cost);
            Array.unsafe_set st.cp_comp i (Array.unsafe_get st.cp_comp i +. cost));
        exec st i k fstart fend fidx frem d
      end
      else if op = Flat.op_dma_issue then begin
        let row = Array.unsafe_get k.Flat.c_arg2 idx in
        let t_issue = Array.unsafe_get st.cp_now i in
        Array.unsafe_set st.cp_now i (t_issue +. st.k_issue);
        let arrival = fmax (Array.unsafe_get st.cp_engine_free i) (Array.unsafe_get st.cp_now i) in
        (* the engine busies itself for the stream length; refined at
           admission when the grant is later than the arrival *)
        Array.unsafe_set st.cp_engine_free i (arrival +. Array.unsafe_get k.Flat.r_stream row);
        let tag = Array.unsafe_get k.Flat.c_arg idx in
        let outst = Array.unsafe_get st.cp_outst i in
        Array.unsafe_set outst tag (Array.unsafe_get outst tag + 1);
        Array.unsafe_set st.cp_outst_total i (Array.unsafe_get st.cp_outst_total i + 1);
        st.dma_requests <- st.dma_requests + 1;
        st.payload_bytes <- st.payload_bytes + Array.unsafe_get k.Flat.r_payload row;
        let r = rq_alloc st in
        Array.unsafe_set st.rq_cpe r i;
        Array.unsafe_set st.rq_attempts r 0;
        Array.unsafe_set st.rq_issue r t_issue;
        Array.unsafe_set st.rq_comp r k;
        Array.unsafe_set st.rq_row r row;
        Array.unsafe_set st.pbuf 0 arrival;
        Cq.push_ref st.events st.pbuf ((r lsl 2) lor ev_admit);
        exec st i k fstart fend fidx frem d
      end
      else if op = Flat.op_dma_wait then begin
        let tag = Array.unsafe_get k.Flat.c_arg idx in
        if Array.unsafe_get (Array.unsafe_get st.cp_outst i) tag = 0 then begin
          Array.unsafe_set st.cp_now i (Array.unsafe_get st.cp_now i +. st.k_wait);
          exec st i k fstart fend fidx frem d
        end
        else begin
          Array.unsafe_set st.cp_blocked i b_tag;
          Array.unsafe_set st.cp_blocked_tag i tag;
          Array.unsafe_set st.cp_blocked_start i (Array.unsafe_get st.cp_now i)
        end
      end
      else if op = Flat.op_wait_all then begin
        if Array.unsafe_get st.cp_outst_total i = 0 then begin
          Array.unsafe_set st.cp_now i (Array.unsafe_get st.cp_now i +. st.k_wait);
          exec st i k fstart fend fidx frem d
        end
        else begin
          Array.unsafe_set st.cp_blocked i b_all;
          Array.unsafe_set st.cp_blocked_start i (Array.unsafe_get st.cp_now i)
        end
      end
      else if op = Flat.op_gload then begin
        st.gload_requests <- st.gload_requests + 1;
        st.payload_bytes <- st.payload_bytes + Array.unsafe_get k.Flat.c_arg2 idx;
        Array.unsafe_set st.cp_blocked i b_gload;
        Array.unsafe_set st.cp_gload_addr i (Array.unsafe_get k.Flat.c_arg idx);
        Array.unsafe_set st.cp_blocked_start i (Array.unsafe_get st.cp_now i);
        Array.unsafe_set st.pbuf 0 (Array.unsafe_get st.cp_now i);
        Cq.push_ref st.events st.pbuf ((i lsl 2) lor ev_gload)
      end
      else begin
        (* op_repeat: overhead on entry, then per re-iteration above;
           the parent resumes past the body *)
        Array.unsafe_set st.cp_now i (Array.unsafe_get st.cp_now i +. st.k_loop);
        let span = Array.unsafe_get k.Flat.c_arg2 idx in
        Array.unsafe_set fidx lvl (idx + 1 + span);
        Array.unsafe_set fstart d (idx + 1);
        Array.unsafe_set fend d (idx + 1 + span);
        Array.unsafe_set fidx d (idx + 1);
        Array.unsafe_set frem d (Array.unsafe_get k.Flat.c_arg idx);
        Array.unsafe_set st.cp_depth i (d + 1);
        exec st i k fstart fend fidx frem (d + 1)
      end
    end
  end

let run_cpe st i =
  exec st i st.cp_prog.(i) st.cp_fstart.(i) st.cp_fend.(i) st.cp_fidx.(i) st.cp_frem.(i)
    st.cp_depth.(i)

let resume st i =
  (match st.recorder with
  | Some record ->
      let at = st.tbuf.(0) in
      let start = st.cp_blocked_start.(i) in
      if at > start then record { Trace.cpe = i; kind = Trace.Dma_stall; t0 = start; t1 = at }
  | None -> ());
  let at = Array.unsafe_get st.tbuf 0 in
  let start = Array.unsafe_get st.cp_blocked_start i in
  let d = at -. start in
  Array.unsafe_set st.cp_dma_wait i
    (Array.unsafe_get st.cp_dma_wait i +. (if d >= 0.0 then d else 0.0));
  Array.unsafe_set st.cp_now i ((if at >= start then at else start) +. st.k_wait);
  Array.unsafe_set st.cp_blocked i b_none;
  Array.unsafe_set st.pbuf 0 (Array.unsafe_get st.cp_now i);
  Cq.push_ref st.events st.pbuf ((i lsl 2) lor ev_step)

let handle_req_done st r =
  let k = Array.unsafe_get st.rq_comp r in
  let row = Array.unsafe_get st.rq_row r in
  (match st.req_recorder with
  | Some record ->
      record
        { Trace.req_cpe = st.rq_cpe.(r); req_tag = k.Flat.r_orig.(row); t_issue = st.rq_issue.(r);
          t_done = st.tbuf.(0); req_retries = st.rq_attempts.(r) }
  | None -> ());
  let i = Array.unsafe_get st.rq_cpe r in
  let tag = Array.unsafe_get k.Flat.r_tag row in
  let outst = Array.unsafe_get st.cp_outst i in
  assert (outst.(tag) > 0);
  Array.unsafe_set outst tag (Array.unsafe_get outst tag - 1);
  Array.unsafe_set st.cp_outst_total i (Array.unsafe_get st.cp_outst_total i - 1);
  (match Array.unsafe_get st.cp_blocked i with
  | 1 (* b_tag *) ->
      if Array.unsafe_get st.cp_blocked_tag i = tag && Array.unsafe_get outst tag = 0 then
        resume st i
  | 2 (* b_all *) -> if Array.unsafe_get st.cp_outst_total i = 0 then resume st i
  | _ -> ());
  (* recycle the request slot *)
  Array.unsafe_set st.rq_free st.rq_free_top r;
  st.rq_free_top <- st.rq_free_top + 1

let handle_admit st r =
  let i = Array.unsafe_get st.rq_cpe r in
  let k = Array.unsafe_get st.rq_comp r in
  let row = Array.unsafe_get st.rq_row r in
  if admit_fails st r then begin
    st.rq_attempts.(r) <- st.rq_attempts.(r) + 1;
    let backoff = float_of_int (st.k_backoff_base * (1 lsl (st.rq_attempts.(r) - 1))) in
    st.retries <- st.retries + 1;
    st.acc.(0) <- st.acc.(0) +. backoff;
    (match st.retry_recorder with
    | Some record ->
        let at = st.tbuf.(0) in
        record
          { Trace.rt_cpe = i; rt_tag = k.Flat.r_orig.(row); rt_attempt = st.rq_attempts.(r);
            t_fail = at; t_retry = at +. backoff }
    | None -> ());
    st.pbuf.(0) <- st.tbuf.(0) +. backoff;
    Cq.push_ref st.events st.pbuf ((r lsl 2) lor ev_admit)
  end
  else begin
    (* bandwidth grant on every controller the request touches;
       [gbuf] accumulates the latest grant starting from [at] *)
    Array.unsafe_set st.gbuf 0 (Array.unsafe_get st.tbuf 0);
    let base = row * st.k_ncgs in
    let home = Array.unsafe_get st.cp_home i in
    let remote = ref false in
    for mc = 0 to st.k_ncgs - 1 do
      let m = Array.unsafe_get k.Flat.r_permc (base + mc) in
      if m > 0 then begin
        grant_upd st mc m;
        if mc <> home then remote := true
      end
    done;
    let lg = Array.unsafe_get st.gbuf 0 in
    let tail = Array.unsafe_get k.Flat.r_tail row in
    let noc = if !remote then st.k_noc else 0.0 in
    let completion = lg +. tail +. st.k_lbase +. noc in
    (* the CPE's DMA engine is occupied until the stream drains *)
    Array.unsafe_set st.cp_engine_free i
      (fmax (Array.unsafe_get st.cp_engine_free i) (lg +. tail));
    Array.unsafe_set st.pbuf 0 completion;
    Cq.push_ref st.events st.pbuf ((r lsl 2) lor ev_done)
  end

let handle_gload_mc st i =
  if st.cp_blocked.(i) <> b_gload then
    invalid_arg "Engine: Gload_mc event for a CPE not blocked on a gload";
  let block_addr = st.cp_gload_addr.(i) / st.k_trans_size * st.k_trans_size in
  let mc_id = Mem_req.route_cg ~trans_size:st.k_trans_size ~n_cgs:st.k_ncgs block_addr in
  st.gbuf.(0) <- neg_infinity;
  grant_upd st mc_id 1;
  let noc = if mc_id <> st.cp_home.(i) then st.k_noc else 0.0 in
  let completion = st.gbuf.(0) +. st.k_lbase +. noc in
  st.cp_gload_wait.(i) <- st.cp_gload_wait.(i) +. (completion -. st.cp_blocked_start.(i));
  st.cp_now.(i) <- completion;
  (match st.recorder with
  | Some record ->
      record
        { Trace.cpe = i; kind = Trace.Gload_stall; t0 = st.cp_blocked_start.(i);
          t1 = st.cp_now.(i) }
  | None -> ());
  st.cp_blocked.(i) <- b_none;
  st.pbuf.(0) <- st.cp_now.(i);
  Cq.push_ref st.events st.pbuf ((i lsl 2) lor ev_step)

(* After an admission, drain every same-timestamp [Req_admit] sitting
   at the head of the queue in one pass.  Only events the outer loop
   would pop next anyway are taken (the peek respects the global
   (time, seq) order), so event ordering — and hence every observable —
   is unchanged; the point is to skip the outer loop's dispatch and
   cutoff checks across a burst of simultaneous admissions, the common
   shape at a saturated controller. *)
let rec drain_admits st ~event_budget ~max_events =
  if st.processed < event_budget then begin
    let c = Cq.peek_into st.events st.qbuf in
    if c >= 0 && c land 3 = ev_admit && st.qbuf.(0) = st.tbuf.(0) then begin
      let c = Cq.pop_into st.events st.tbuf in
      st.processed <- st.processed + 1;
      if st.processed > max_events then raise Event_limit;
      handle_admit st (c lsr 2);
      drain_admits st ~event_budget ~max_events
    end
  end

let run_internal ?recorder ?req_recorder ?retry_recorder ?cutoff ?event_budget
    (config : Config.t) programs =
  let p = config.params in
  let n = Array.length programs in
  check_fleet config n;
  (* a flat program is only valid under the parameters it baked in; a
     fleet built together shares one baked record, checked once *)
  for i = 0 to n - 1 do
    let baked = programs.(i).Flat.baked in
    if i = 0 || baked != programs.(i - 1).Flat.baked then
      match Flat.mismatch baked p with
      | None -> ()
      | Some (field, built, given) ->
          invalid_arg
            (Printf.sprintf "Engine.run: program %d was built for %s = %d but the config has %d" i
               field built given)
  done;
  let prng = Sw_util.Prng.create config.seed in
  let cp_now = Array.make n 0.0 in
  for i = 0 to n - 1 do
    (* jitter draws in CPE order, exactly as the reference's Array.init *)
    cp_now.(i) <-
      (if config.start_jitter > 0 then
         float_of_int (Sw_util.Prng.int prng (config.start_jitter + 1))
       else 0.0)
  done;
  let cp_fstart = Array.init n (fun i -> Array.make programs.(i).Flat.k_depth 0) in
  let cp_fend = Array.init n (fun i -> Array.make programs.(i).Flat.k_depth 0) in
  let cp_fidx = Array.init n (fun i -> Array.make programs.(i).Flat.k_depth 0) in
  let cp_frem = Array.init n (fun i -> Array.make programs.(i).Flat.k_depth 0) in
  (* every CPE starts inside its top-level frame; an empty stream exits
     it at once, exactly as an empty program finishes at once *)
  let cp_depth = Array.make n 1 in
  for i = 0 to n - 1 do
    cp_fend.(i).(0) <- Flat.length programs.(i);
    cp_frem.(i).(0) <- 1
  done;
  let faults = config.Config.faults in
  let slowdown = Array.make n 1.0 in
  List.iter (fun (id, factor) -> if id < n then slowdown.(id) <- factor) faults.Config.stragglers;
  let throttles = Array.make p.n_cgs [] in
  List.iter (fun (mc, w) -> throttles.(mc) <- throttles.(mc) @ [ w ]) faults.Config.mc_throttles;
  let faults_on = Config.faults_active faults in
  let rq_cap = let c = 2 * n in if c < 16 then 16 else c in
  let st =
    {
      recorder;
      req_recorder;
      retry_recorder;
      cp_prog = programs;
      cp_home = Array.init n (fun i -> i / p.cpes_per_cg);
      cp_now;
      cp_engine_free = Array.make n 0.0;
      cp_comp = Array.make n 0.0;
      cp_gload_wait = Array.make n 0.0;
      cp_dma_wait = Array.make n 0.0;
      cp_finish = Array.make n 0.0;
      cp_finished = Array.make n false;
      cp_blocked = Array.make n b_none;
      cp_blocked_tag = Array.make n 0;
      cp_blocked_start = Array.make n 0.0;
      cp_gload_addr = Array.make n 0;
      cp_outst = Array.init n (fun i -> Array.make programs.(i).Flat.k_ntags 0);
      cp_outst_total = Array.make n 0;
      cp_fstart;
      cp_fend;
      cp_fidx;
      cp_frem;
      cp_depth;
      mc_bw = Array.make p.n_cgs 0.0;
      mc_busy = Array.make p.n_cgs 0.0;
      rq_cap;
      rq_cpe = Array.make rq_cap 0;
      rq_attempts = Array.make rq_cap 0;
      rq_issue = Array.make rq_cap 0.0;
      rq_comp = Array.make rq_cap dummy_flat;
      rq_row = Array.make rq_cap 0;
      rq_free = Array.init rq_cap (fun k -> rq_cap - 1 - k);
      rq_free_top = rq_cap;
      events = Cq.create ~capacity:(4 * n) ();
      tbuf = Array.make 1 0.0;
      pbuf = Array.make 1 0.0;
      qbuf = Array.make 1 0.0;
      gbuf = Array.make 1 0.0;
      acc = Array.make 1 0.0;
      k_issue = float_of_int config.dma_issue_cost;
      k_wait = float_of_int config.dma_wait_cost;
      k_loop = float_of_int config.loop_overhead;
      k_ttx = Sw_arch.Params.cycles_per_transaction p;
      k_lbase = float_of_int p.l_base;
      k_noc = float_of_int p.noc_extra_latency;
      k_trans_size = p.trans_size;
      k_ncgs = p.n_cgs;
      k_fail_prob = faults.Config.dma_fail_prob;
      k_max_retries = faults.Config.dma_max_retries;
      k_backoff_base = faults.Config.dma_backoff_cycles;
      fault_dma = faults_on && faults.Config.dma_fail_prob > 0.0;
      fault_prng = Sw_util.Prng.create faults.Config.fault_seed;
      slowdown;
      throttles;
      retries = 0;
      transactions = 0;
      payload_bytes = 0;
      dma_requests = 0;
      gload_requests = 0;
      processed = 0;
    }
  in
  for i = 0 to n - 1 do
    st.pbuf.(0) <- st.cp_now.(i);
    Cq.push_ref st.events st.pbuf ((i lsl 2) lor ev_step)
  done;
  let cutoff = Option.value cutoff ~default:infinity in
  let event_budget = Option.value event_budget ~default:max_int in
  let max_events = config.max_events in
  (* The queue delivers events in time order, so the clock of the next
     unprocessed event is a lower bound on the final makespan: the
     moment it passes [cutoff] the run cannot beat the incumbent and is
     abandoned.  The comparison is strict so a run that exactly ties
     the incumbent still completes — pruned searches keep the
     earliest-index tie-break of the exhaustive argmin. *)
  let rec loop () =
    let c = Cq.pop_into st.events st.tbuf in
    if c < 0 then begin
      let first = ref (-1) in
      for i = n - 1 downto 0 do
        if not st.cp_finished.(i) then first := i
      done;
      if !first >= 0 then
        raise
          (Deadlock
             (Printf.sprintf "event queue empty with unfinished CPEs (first: %d)" !first));
      None
    end
    else if st.tbuf.(0) > cutoff || st.processed >= event_budget then Some st.tbuf.(0)
    else begin
      st.processed <- st.processed + 1;
      if st.processed > max_events then raise Event_limit;
      (match c land 3 with
      | 0 (* ev_step *) ->
          let i = c lsr 2 in
          if not st.cp_finished.(i) then run_cpe st i
      | 1 (* ev_admit *) ->
          handle_admit st (c lsr 2);
          drain_admits st ~event_budget ~max_events
      | 2 (* ev_done *) -> handle_req_done st (c lsr 2)
      | _ (* ev_gload *) -> handle_gload_mc st (c lsr 2));
      loop ()
    end
  in
  match loop () with
  | Some at -> Cutoff { at; events = st.processed }
  | None ->
      let maxf a = Array.fold_left (fun acc v -> fmax acc v) 0.0 a in
      Finished
        {
          Metrics.cycles = maxf st.cp_finish;
          per_cpe_finish = Array.copy st.cp_finish;
          comp_cycles = maxf st.cp_comp;
          dma_wait_cycles = maxf st.cp_dma_wait;
          gload_cycles = maxf st.cp_gload_wait;
          comp_cycles_sum = Array.fold_left ( +. ) 0.0 st.cp_comp;
          transactions = st.transactions;
          payload_bytes = st.payload_bytes;
          dma_requests = st.dma_requests;
          gload_requests = st.gload_requests;
          mc_busy_cycles = Array.copy st.mc_busy;
          events = st.processed;
          (* an empty pop leaves [tbuf] alone, so it still holds the
             clock of the last event processed *)
          last_event_at = st.tbuf.(0);
          retries = st.retries;
          backoff_cycles = st.acc.(0);
        }

let finished_exn = function
  | Finished m -> m
  | Cutoff _ -> assert false (* unreachable without ?cutoff/?event_budget *)

let run config programs = finished_exn (run_internal config programs)

let run_budget ?cutoff ?event_budget config programs =
  run_internal ?cutoff ?event_budget config programs

let run_traced_full config programs =
  let spans = ref [] in
  let reqs = ref [] in
  let retries = ref [] in
  let metrics =
    finished_exn
      (run_internal
         ~recorder:(fun s -> spans := s :: !spans)
         ~req_recorder:(fun r -> reqs := r :: !reqs)
         ~retry_recorder:(fun r -> retries := r :: !retries)
         config programs)
  in
  (metrics, List.rev !spans, List.rev !reqs, List.rev !retries)

let run_traced config programs =
  let metrics, spans, _, _ = run_traced_full config programs in
  (metrics, spans)
