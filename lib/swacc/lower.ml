module Flat = Sw_isa.Flat
module Mem_req = Sw_arch.Mem_req

let spm_required kernel (variant : Kernel.variant) =
  let base = Kernel.spm_bytes_per_chunk kernel ~grain:variant.grain in
  if variant.double_buffer then 2 * base else base

let ceil_div a b = (a + b - 1) / b

(* scalar iterations -> vector iterations *)
let vector_iters kernel n = ceil_div n kernel.Kernel.vector_width

(* ------------------------------------------------------------------ *)
(* Bounded memo tables.

   Every table below caches a pure function of its key.  A key holding
   a kernel compares it {e physically}: [Kernel.t] carries closures
   (gload address generators), so two structurally-different kernels
   can share a name ([Kernel.coalesce_gloads] keeps it) and no
   structural key is sound.  Sweeps hold one kernel value across every
   point, which is exactly when sharing pays.

   Tables are mutex-guarded (tuning pools compile from several domains)
   and FIFO-bounded, so a long bench run does not pin every result in
   memory.  A miss computes outside the lock: concurrent misses of the
   same key both compute (the results are equal) and nobody blocks on
   another's work. *)

module Memo (K : Hashtbl.HashedType) : sig
  type 'v t

  val create : int -> 'v t

  val find_or_add : 'v t -> K.t -> (unit -> 'v) -> 'v

  val clear : 'v t -> unit

  val stats : 'v t -> int * int
end = struct
  module Tbl = Hashtbl.Make (K)

  type 'v t = {
    tbl : 'v Tbl.t;
    fifo : K.t Queue.t;
    capacity : int;
    lock : Mutex.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create capacity =
    { tbl = Tbl.create capacity; fifo = Queue.create (); capacity; lock = Mutex.create ();
      hits = 0; misses = 0 }

  let find_or_add t key compute =
    let cached =
      Mutex.protect t.lock (fun () ->
          let r = Tbl.find_opt t.tbl key in
          if Option.is_some r then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
          r)
    in
    match cached with
    | Some v -> v
    | None ->
        let v = compute () in
        Mutex.protect t.lock (fun () ->
            if not (Tbl.mem t.tbl key) then begin
              if Queue.length t.fifo >= t.capacity then Tbl.remove t.tbl (Queue.pop t.fifo);
              Queue.push key t.fifo;
              Tbl.add t.tbl key v
            end);
        v

  let clear t =
    Mutex.protect t.lock (fun () ->
        Tbl.reset t.tbl;
        Queue.clear t.fifo;
        t.hits <- 0;
        t.misses <- 0)

  let stats t = Mutex.protect t.lock (fun () -> (t.hits, t.misses))
end

let kernel_hash (k : Kernel.t) = Hashtbl.hash (k.Kernel.name, k.Kernel.n_elements)

(* ------------------------------------------------------------------ *)
(* Unroll half: the unrolled and remainder blocks.  Code generation
   depends on the body, the address-arithmetic knob and the unroll
   only, so one pair serves every grain and buffering choice. *)

module Unroll_memo = Memo (struct
  type t = Kernel.t * int

  let equal (ka, ua) (kb, ub) = ka == kb && ua = ub

  let hash (k, u) = Hashtbl.hash (kernel_hash k, u)
end)

let unroll_memo = Unroll_memo.create 256

let blocks_of kernel ~unroll =
  Unroll_memo.find_or_add unroll_memo (kernel, unroll) (fun () ->
      let gen unroll =
        Codegen.block ~ialu_per_access:kernel.Kernel.ialu_per_access ~unroll kernel.Kernel.body
      in
      let block_u = gen unroll in
      (block_u, if unroll = 1 then block_u else gen 1))

(* ------------------------------------------------------------------ *)
(* Grain half: everything in the summary that depends on the
   decomposition — the longest-path element count, the DMA-group
   histogram and the Gload total — computed in closed form.  It depends
   on the grain and the effective active CPEs, not on unroll or double
   buffering.

   Chunk k covers elements [k*grain, k*grain + n) and goes to CPE
   k mod active.  CPE 0 always has the most elements: it holds the
   most chunks, and it holds the short tail chunk only when it is the
   sole CPE with that many (the enumerating summary breaks ties towards
   the lowest CPE, so CPE 0 is its longest path too). *)

type grain_facts = {
  longest_elems : int;
  dma_groups : Lowered.dma_group list;
  gload_count : int;
  gload_bytes : int;
}

(* Per-kernel prefix sums of the irregular per-element Gload counts:
   [prefix.(i)] is the Gloads of elements [0, i). *)
module Prefix_memo = Memo (struct
  type t = Kernel.t

  let equal = ( == )

  let hash = kernel_hash
end)

let prefix_memo = Prefix_memo.create 8

let gload_prefix kernel (g : Kernel.gload_spec) =
  Prefix_memo.find_or_add prefix_memo kernel (fun () ->
      let n = kernel.Kernel.n_elements in
      let prefix = Array.make (n + 1) 0 in
      for i = 0 to n - 1 do
        prefix.(i + 1) <- prefix.(i) + g.Kernel.count_for i
      done;
      prefix)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* One logical request per copy intrinsic per chunk, grouped by shape;
   the transaction count is alignment-aware — the compiler knows bases
   and strides, and stride layout "has to be taken into special
   considerations" (Section III-C).  A full chunk's shape depends on
   its index k only through the arrays' start addresses mod
   trans_size, which advance by grain * (element bytes or stride) per
   chunk and so repeat with period trans_size / gcd (those steps,
   trans_size).  One period of full chunks, each weighted by how often
   its residue recurs, plus the tail chunk is the whole fleet's
   histogram.  Counts are averaged per active CPE — Eq. 4's request
   wave is the fleet total. *)
let dma_histogram ~trans_size kernel ~grain ~active =
  let copies = kernel.Kernel.copies in
  let step c =
    match (c.Kernel.freq, c.Kernel.layout) with
    | Kernel.Per_chunk, _ -> 0
    | Kernel.Per_element, Kernel.Contiguous -> grain * c.Kernel.bytes_per_elem mod trans_size
    | Kernel.Per_element, Kernel.Strided stride -> grain * stride mod trans_size
  in
  let period = trans_size / List.fold_left (fun acc c -> gcd acc (step c)) trans_size copies in
  let groups : (int * int * int, int ref) Hashtbl.t = Hashtbl.create 8 in
  let note ~weight ~pred ~first ~n =
    let payload, mrt, transfers =
      List.fold_left
        (fun ((payload, mrt, transfers) as acc) c ->
          if pred c then begin
            let access = Kernel.chunk_access c ~first ~n in
            ( payload + Mem_req.payload_bytes access,
              mrt + Mem_req.transactions ~trans_size access,
              transfers + 1 )
          end
          else acc)
        (0, 0, 0) copies
    in
    if payload > 0 then
      match Hashtbl.find_opt groups (payload, mrt, transfers) with
      | Some r -> r := !r + weight
      | None -> Hashtbl.add groups (payload, mrt, transfers) (ref weight)
  in
  let chunk ~weight ~first ~n =
    note ~weight ~pred:Kernel.copied_in ~first ~n;
    note ~weight ~pred:Kernel.copied_out ~first ~n
  in
  let n_elements = kernel.Kernel.n_elements in
  let full = n_elements / grain and tail = n_elements mod grain in
  for r = 0 to Stdlib.min period full - 1 do
    let weight = (full / period) + if r < full mod period then 1 else 0 in
    chunk ~weight ~first:(r * grain) ~n:grain
  done;
  if tail > 0 then chunk ~weight:1 ~first:(full * grain) ~n:tail;
  Hashtbl.fold
    (fun (payload_bytes, mrt, transfers) count acc ->
      { Lowered.payload_bytes; mrt; count = float_of_int !count /. float_of_int active; transfers }
      :: acc)
    groups []
  |> List.sort compare

let grain_facts ~trans_size kernel ~grain ~active =
  let n_elements = kernel.Kernel.n_elements in
  let nchunks = ceil_div n_elements grain in
  let tail = n_elements mod grain in
  (* the CPE holding the short tail chunk, if any *)
  let tail_cpe = if tail > 0 then (nchunks - 1) mod active else -1 in
  let chunks_of cpe = (nchunks / active) + if cpe < nchunks mod active then 1 else 0 in
  let spills cpe =
    match kernel.Kernel.spill_gloads with
    | None -> 0
    | Some f ->
        let full = chunks_of cpe - if cpe = tail_cpe then 1 else 0 in
        (full * Stdlib.max 0 (f grain)) + if cpe = tail_cpe then Stdlib.max 0 (f tail) else 0
  in
  let gload_count, gload_bytes =
    match kernel.Kernel.gloads with
    | None -> (spills 0, 8)
    | Some g ->
        (* Gloads are irregular per element, so the maximum runs over
           every CPE, one prefix-sum difference per chunk *)
        let prefix = gload_prefix kernel g in
        let most = ref 0 in
        for cpe = 0 to active - 1 do
          let total = ref (spills cpe) in
          let k = ref cpe in
          while !k < nchunks do
            let first = !k * grain in
            total := !total + prefix.(Stdlib.min n_elements (first + grain)) - prefix.(first);
            k := !k + active
          done;
          most := Stdlib.max !most !total
        done;
        (!most, g.Kernel.g_bytes)
  in
  {
    longest_elems = (chunks_of 0 * grain) - if tail_cpe = 0 then grain - tail else 0;
    dma_groups = dma_histogram ~trans_size kernel ~grain ~active;
    gload_count;
    gload_bytes;
  }

(* Of the machine parameters only the transaction size matters here. *)
module Grain_memo = Memo (struct
  type t = Kernel.t * int * int * int

  let equal (ka, ta, ga, aa) (kb, tb, gb, ab) = ka == kb && ta = tb && ga = gb && aa = ab

  let hash (k, t, g, a) = Hashtbl.hash (kernel_hash k, t, g, a)
end)

let grain_memo = Grain_memo.create 4096

let grain_facts_of params kernel ~grain ~active =
  let trans_size = params.Sw_arch.Params.trans_size in
  Grain_memo.find_or_add grain_memo (kernel, trans_size, grain, active) (fun () ->
      grain_facts ~trans_size kernel ~grain ~active)

(* ------------------------------------------------------------------ *)
(* Compile: validate the variant, then join the two halves.  Compute
   follows the longest path; remainders occur per compute item, and
   approximating them by the aggregate split keeps the summary simple
   and matches the fused case exactly. *)

let check params kernel (variant : Kernel.variant) =
  let total_cpes = Sw_arch.Params.total_cpes params in
  if variant.grain <= 0 then Error "grain must be positive"
  else if variant.unroll <= 0 then Error "unroll must be positive"
  else if variant.active_cpes <= 0 then Error "active_cpes must be positive"
  else if variant.active_cpes > total_cpes then
    Error
      (Printf.sprintf "variant wants %d CPEs but the machine has %d" variant.active_cpes total_cpes)
  else begin
    let spm = spm_required kernel variant in
    if spm > params.Sw_arch.Params.spm_bytes then
      Error
        (Printf.sprintf "chunk needs %d B of SPM but only %d B available" spm
           params.Sw_arch.Params.spm_bytes)
    else Ok spm
  end

let compile params kernel (variant : Kernel.variant) =
  Result.map
    (fun spm ->
      let active =
        Kernel.effective_active_cpes kernel ~grain:variant.grain ~requested:variant.active_cpes
      in
      let ((block_u, block_r) as blocks) = blocks_of kernel ~unroll:variant.unroll in
      let facts = grain_facts_of params kernel ~grain:variant.grain ~active in
      let total_iters =
        vector_iters kernel (facts.longest_elems * kernel.Kernel.body_trips_per_element)
      in
      let trips_u, rem = Codegen.trips_for ~total_iters ~unroll:variant.unroll in
      let computes =
        List.filter_map
          (fun (block, trips) -> if trips > 0 then Some { Lowered.block; trips } else None)
          [ (block_u, trips_u); (block_r, rem) ]
      in
      let summary =
        {
          Lowered.active_cpes = active;
          dma_groups = facts.dma_groups;
          gload_count = facts.gload_count;
          gload_bytes = facts.gload_bytes;
          computes;
          vector_width = kernel.Kernel.vector_width;
          double_buffered = variant.double_buffer;
        }
      in
      (spm, active, blocks, summary))
    (check params kernel variant)

let summarize params kernel variant =
  Result.map (fun (_, _, _, summary) -> summary) (compile params kernel variant)

(* ------------------------------------------------------------------ *)
(* Flat emission.  [lower] writes each CPE's program straight into the
   engine's struct-of-arrays form ({!Sw_isa.Flat}), in the item order
   of the reference lowering ({!Lower_ref.lower}): per chunk, copy-in
   and wait, compiler spills, compute (per-element Gloads interleaved
   for irregular kernels), copy-out and wait; the double-buffered
   schedule prefetches the next chunk's copy-in into the other buffer
   before computing.  Arrays are sized from closed-form counts, compute
   costs are scheduled once per lowering, and DMA rows come from a
   residue table in the grain half. *)

(* DMA rows, the grain half's share of the executable form.  A full
   chunk's request depends on its index k only through its arrays'
   start addresses mod trans_size * n_cgs (which controller each
   transaction routes to), and those advance by a fixed step per
   chunk, so the rows repeat with period (trans_size * n_cgs) / gcd
   (steps, trans_size * n_cgs) — the DMA histogram's argument with the
   controllers added.  One period of rows plus the short tail chunk's
   serves every CPE, unroll and buffering choice.  Row [2r] is residue
   r's copy-in, [2r + 1] its copy-out; the tail's follow the residues. *)
type dma_rows = {
  period : int;
  tail_row : int;  (* the tail chunk's copy-in row *)
  payload : int array;
  counts : int array;  (* transactions per controller, n_cgs per row *)
}

let dma_rows ~trans_size ~n_cgs kernel ~grain =
  let copies = kernel.Kernel.copies in
  let span = trans_size * n_cgs in
  let step c =
    match (c.Kernel.freq, c.Kernel.layout) with
    | Kernel.Per_chunk, _ -> 0
    | Kernel.Per_element, Kernel.Contiguous -> grain * c.Kernel.bytes_per_elem mod span
    | Kernel.Per_element, Kernel.Strided stride -> grain * stride mod span
  in
  let period = span / List.fold_left (fun acc c -> gcd acc (step c)) span copies in
  let n_elements = kernel.Kernel.n_elements in
  let full = n_elements / grain and tail = n_elements mod grain in
  let residues = Stdlib.min period full in
  let nrows = 2 * (residues + if tail > 0 then 1 else 0) in
  let payload = Array.make nrows 0 and counts = Array.make (nrows * n_cgs) 0 in
  let per_cg = Array.make n_cgs 0 in
  let fill row ~pred ~first ~n =
    Array.fill per_cg 0 n_cgs 0;
    List.iter
      (fun c ->
        if pred c then begin
          let access = Kernel.chunk_access c ~first ~n in
          payload.(row) <- payload.(row) + Mem_req.payload_bytes access;
          Mem_req.count_per_cg ~trans_size ~n_cgs access per_cg
        end)
      copies;
    Array.blit per_cg 0 counts (row * n_cgs) n_cgs
  in
  let chunk row ~first ~n =
    fill row ~pred:Kernel.copied_in ~first ~n;
    fill (row + 1) ~pred:Kernel.copied_out ~first ~n
  in
  for r = 0 to residues - 1 do
    chunk (2 * r) ~first:(r * grain) ~n:grain
  done;
  if tail > 0 then chunk (2 * residues) ~first:(full * grain) ~n:tail;
  { period; tail_row = 2 * residues; payload; counts }

(* Of the machine parameters only the transaction size and the
   controller count matter here. *)
module Rows_memo = Memo (struct
  type t = Kernel.t * int * int * int

  let equal (ka, ta, ca, ga) (kb, tb, cb, gb) = ka == kb && ta = tb && ca = cb && ga = gb

  let hash (k, t, c, g) = Hashtbl.hash (kernel_hash k, t, c, g)
end)

let rows_memo = Rows_memo.create 256

let dma_rows_of (params : Sw_arch.Params.t) kernel ~grain =
  let trans_size = params.trans_size and n_cgs = params.n_cgs in
  Rows_memo.find_or_add rows_memo (kernel, trans_size, n_cgs, grain) (fun () ->
      dma_rows ~trans_size ~n_cgs kernel ~grain)

(* The simulator refuses Gload/Gstore requests wider than the machine
   allows; flat programs skip that validation, so lowering refuses. *)
let check_gloads (params : Sw_arch.Params.t) kernel =
  let widest =
    Stdlib.max
      (match kernel.Kernel.gloads with Some g -> g.Kernel.g_bytes | None -> 0)
      (if kernel.Kernel.spill_gloads = None then 0 else 8)
  in
  if widest > params.gload_max_bytes then
    Error
      (Printf.sprintf "Gload/Gstore of %d bytes exceeds the %d-byte limit" widest
         params.gload_max_bytes)
  else Ok ()

(* Compute items for [scalar_iters] iterations: the unrolled block's
   cost, then the remainder block's, each only when it runs. *)
let compute_costs kernel ~unroll ((first_u, steady_u), (first_r, steady_r)) scalar_iters =
  let trips_u, rem = Codegen.trips_for ~total_iters:(vector_iters kernel scalar_iters) ~unroll in
  let cost first steady trips = first +. (float_of_int (trips - 1) *. steady) in
  Array.of_list
    ((if trips_u > 0 then [ cost first_u steady_u trips_u ] else [])
    @ if rem > 0 then [ cost first_r steady_r rem ] else [])

let emit params kernel (variant : Kernel.variant) ~active (block_u, block_r) =
  let grain = variant.grain in
  let n_elements = kernel.Kernel.n_elements in
  let nchunks = ceil_div n_elements grain in
  let full = n_elements / grain and tail = n_elements mod grain in
  let rows = dma_rows_of params kernel ~grain in
  let ncgs = params.Sw_arch.Params.n_cgs in
  let baked = Flat.baked_of params in
  let has_in = List.exists Kernel.copied_in kernel.Kernel.copies in
  let has_out = List.exists Kernel.copied_out kernel.Kernel.copies in
  let hi = Bool.to_int has_in and ho = Bool.to_int has_out in
  let costs =
    ( Sw_isa.Schedule.block_costs params block_u,
      Sw_isa.Schedule.block_costs params block_r )
  in
  let per_elem = kernel.Kernel.body_trips_per_element in
  let costs_of n = compute_costs kernel ~unroll:variant.unroll costs (n * per_elem) in
  let full_costs = costs_of grain and tail_costs = if tail > 0 then costs_of tail else [||] in
  let elem_costs = costs_of 1 in
  let spills n =
    match (kernel.Kernel.spill_gloads, kernel.Kernel.copies) with
    | None, _ | _, [] -> 0
    | Some f, _ -> Stdlib.max 0 (f n)
  in
  let full_spills = spills grain and tail_spills = if tail > 0 then spills tail else 0 in
  (* spill addresses fall in the first array's chunk region *)
  let spill_base, spill_stride =
    match kernel.Kernel.copies with
    | c :: _ -> (c.Kernel.base_addr, c.Kernel.bytes_per_elem)
    | [] -> (0, 0)
  in
  let prefix = Option.map (gload_prefix kernel) kernel.Kernel.gloads in
  let program cpe =
    let nch = (nchunks / active) + if cpe < nchunks mod active then 1 else 0 in
    let has_tail = tail > 0 && (nchunks - 1) mod active = cpe in
    let nfull = nch - Bool.to_int has_tail in
    (* items per chunk besides its DMA traffic: spills and compute *)
    let body_items =
      (nfull * full_spills)
      + (if has_tail then tail_spills else 0)
      +
      match prefix with
      | None -> (nfull * Array.length full_costs) + if has_tail then Array.length tail_costs else 0
      | Some prefix ->
          let gloads = ref 0 in
          for j = 0 to nch - 1 do
            let first = (cpe + (j * active)) * grain in
            gloads := !gloads + prefix.(Stdlib.min n_elements (first + grain)) - prefix.(first)
          done;
          let elems = (nfull * grain) + if has_tail then tail else 0 in
          !gloads + (elems * Array.length elem_costs)
    in
    let dma_items =
      if variant.double_buffer then hi + (nch * (1 + ho)) + ((nch - 1) * (1 + hi)) + 1
      else nch * 2 * (hi + ho)
    in
    let b = Flat.builder baked ~items:(body_items + dma_items) ~rows:(nch * (hi + ho)) in
    let row_of k = if k >= full then rows.tail_row else 2 * (k mod rows.period) in
    let issue ~tag row = Flat.dma_issue b ~tag ~payload:rows.payload.(row) rows.counts (row * ncgs) in
    let copy_in ~tag k = if has_in then issue ~tag (row_of k) in
    let copy_out ~tag k = if has_out then issue ~tag (row_of k + 1) in
    let computes costs =
      for i = 0 to Array.length costs - 1 do
        Flat.compute b costs.(i)
      done
    in
    let body k =
      let first = k * grain in
      let n = Stdlib.min grain (n_elements - first) in
      let spill_addr = spill_base + (first * spill_stride) in
      for j = 0 to (if n = grain then full_spills else tail_spills) - 1 do
        Flat.gload b ~addr:(spill_addr + (j * 8)) ~bytes:8
      done;
      match kernel.Kernel.gloads with
      | None -> computes (if n = grain then full_costs else tail_costs)
      | Some g ->
          for elem = first to first + n - 1 do
            for j = 0 to g.Kernel.count_for elem - 1 do
              Flat.gload b ~addr:(g.Kernel.addr_for elem j) ~bytes:g.Kernel.g_bytes
            done;
            computes elem_costs
          done
    in
    if variant.double_buffer then begin
      (* buffer of the j-th chunk is j mod 2; tags: in = buffer,
         out = 2 + buffer *)
      copy_in ~tag:0 cpe;
      for j = 0 to nch - 1 do
        let k = cpe + (j * active) and buf = j land 1 in
        Flat.dma_wait b buf;
        if j + 1 < nch then begin
          (* the next copy-in reuses the other buffer; its previous
             copy-out must have drained first *)
          Flat.dma_wait b (3 - buf);
          copy_in ~tag:(1 - buf) (k + active)
        end;
        body k;
        copy_out ~tag:(2 + buf) k
      done;
      Flat.wait_all b
    end
    else
      for j = 0 to nch - 1 do
        let k = cpe + (j * active) in
        if has_in then begin
          copy_in ~tag:0 k;
          Flat.dma_wait b 0
        end;
        body k;
        if has_out then begin
          copy_out ~tag:0 k;
          Flat.dma_wait b 0
        end
      done;
    Flat.finish b ~depth:1
  in
  Array.init active program

let lower params kernel (variant : Kernel.variant) =
  Result.bind (compile params kernel variant) (fun (spm, active, blocks, summary) ->
      Result.map
        (fun () ->
          {
            Lowered.kernel_name = kernel.Kernel.name;
            programs = emit params kernel variant ~active blocks;
            summary;
            spm_bytes_per_cpe = spm;
          })
        (check_gloads params kernel))

let lower_exn params kernel variant =
  match lower params kernel variant with
  | Ok l -> l
  | Error msg -> invalid_arg (Printf.sprintf "Lower.lower_exn (%s): %s" kernel.Kernel.name msg)

(* ------------------------------------------------------------------ *)
(* Cross-run lowering cache.

   A pruned search assesses a variant (the backend lowers it) and then
   re-runs the winner and the default (the tuner lowers them again).
   Lowering is pure, so the result can be shared by everyone pricing
   the same (params, kernel, variant).  Sweeps revisit a small working
   set per kernel, so the table is small. *)

module Lower_memo = Memo (struct
  type t = Sw_arch.Params.t * Kernel.t * Kernel.variant

  let equal (pa, ka, va) (pb, kb, vb) = ka == kb && va = vb && pa = pb

  let hash (p, k, v) = Hashtbl.hash (p, kernel_hash k, v)
end)

let lower_memo = Lower_memo.create 64

let clear_cache () =
  Lower_memo.clear lower_memo;
  Rows_memo.clear rows_memo;
  Unroll_memo.clear unroll_memo;
  Grain_memo.clear grain_memo;
  Prefix_memo.clear prefix_memo

let cache_stats () = Lower_memo.stats lower_memo

let lower_cached params kernel variant =
  Lower_memo.find_or_add lower_memo (params, kernel, variant) (fun () -> lower params kernel variant)

let lower_cached_exn params kernel variant =
  match lower_cached params kernel variant with
  | Ok l -> l
  | Error msg -> invalid_arg (Printf.sprintf "Lower.lower_cached_exn (%s): %s" kernel.Kernel.name msg)
