(* The enumerating static summary: every chunk of every CPE, every
   copied array, every strided row.  See lower_ref.mli. *)

module Mem_req = Sw_arch.Mem_req
module Program = Sw_isa.Program

(* Alignment-aware transaction count, one row at a time. *)
let transactions ~trans_size access =
  List.fold_left
    (fun acc (addr, bytes) -> acc + ((addr + bytes - 1) / trans_size) - (addr / trans_size) + 1)
    0 (Mem_req.chunks access)

let vector_iters kernel n = (n + kernel.Kernel.vector_width - 1) / kernel.Kernel.vector_width

(* Static summary for the longest-path CPE. *)
let build_summary params kernel ~blocks ~unroll ~active ~double_buffer per_cpe_chunks =
  let block_u, block_r = blocks in
  let trans_size = params.Sw_arch.Params.trans_size in
  (* computation follows the longest path (the CPE with the most
     elements); DMA request shapes are tallied over the whole fleet and
     averaged per CPE — Eq. 4's request wave is the fleet total, and
     alignment can make some CPEs' requests heavier than others *)
  let cpe_elems = Array.map (fun chunks -> List.fold_left (fun a (_, n) -> a + n) 0 chunks) per_cpe_chunks in
  let longest = ref 0 in
  Array.iteri (fun i n -> if n > cpe_elems.(!longest) then longest := i) cpe_elems;
  (* one logical request per copy intrinsic per chunk: group identical
     shapes; the static transaction count is alignment-aware — the
     compiler knows bases and strides, and stride layout "has to be
     taken into special considerations" (Section III-C) *)
  let groups : (int * int * int, int ref) Hashtbl.t = Hashtbl.create 8 in
  let note ~payload ~mrt ~transfers =
    if payload > 0 then begin
      match Hashtbl.find_opt groups (payload, mrt, transfers) with
      | Some r -> incr r
      | None -> Hashtbl.add groups (payload, mrt, transfers) (ref 1)
    end
  in
  Array.iter
    (fun chunks ->
      List.iter
        (fun (first, n) ->
          let tally pred =
            List.fold_left
              (fun (payload, mrt, transfers) c ->
                if pred c then begin
                  let access = Kernel.chunk_access c ~first ~n in
                  ( payload + Mem_req.payload_bytes access,
                    mrt + transactions ~trans_size access,
                    transfers + 1 )
                end
                else (payload, mrt, transfers))
              (0, 0, 0) kernel.Kernel.copies
          in
          let in_payload, in_mrt, in_tr = tally Kernel.copied_in in
          let out_payload, out_mrt, out_tr = tally Kernel.copied_out in
          note ~payload:in_payload ~mrt:in_mrt ~transfers:in_tr;
          note ~payload:out_payload ~mrt:out_mrt ~transfers:out_tr)
        chunks)
    per_cpe_chunks;
  let dma_groups =
    Hashtbl.fold
      (fun (payload_bytes, mrt, transfers) count acc ->
        {
          Lowered.payload_bytes;
          mrt;
          count = float_of_int !count /. float_of_int active;
          transfers;
        }
        :: acc)
      groups []
    |> List.sort compare
  in
  (* gloads: max over CPEs, plus per-chunk compiler spills *)
  let spills_of chunks =
    match kernel.Kernel.spill_gloads with
    | None -> 0
    | Some f -> List.fold_left (fun acc (_, n) -> acc + Stdlib.max 0 (f n)) 0 chunks
  in
  let gload_count, gload_bytes =
    match kernel.Kernel.gloads with
    | None ->
        ( (if kernel.Kernel.spill_gloads = None then 0 else spills_of per_cpe_chunks.(!longest)),
          8 )
    | Some g ->
        let per_cpe =
          Array.map
            (fun chunks ->
              List.fold_left
                (fun acc (first, n) ->
                  let rec sum k acc =
                    if k = n then acc else sum (k + 1) (acc + g.Kernel.count_for (first + k))
                  in
                  sum 0 acc)
                0 chunks)
            per_cpe_chunks
        in
        let per_cpe = Array.map2 ( + ) per_cpe (Array.map spills_of per_cpe_chunks) in
        (Array.fold_left Stdlib.max 0 per_cpe, g.Kernel.g_bytes)
  in
  let total_iters = vector_iters kernel (cpe_elems.(!longest) * kernel.Kernel.body_trips_per_element) in
  let trips_u, rem_per_block = Codegen.trips_for ~total_iters ~unroll in
  (* remainders occur per compute item; approximating by the aggregate
     split keeps the summary simple and matches the fused case exactly *)
  let computes =
    List.filter_map
      (fun (block, trips) -> if trips > 0 then Some { Lowered.block; trips } else None)
      [ (block_u, trips_u); (block_r, rem_per_block) ]
  in
  {
    Lowered.active_cpes = active;
    dma_groups;
    gload_count;
    gload_bytes;
    computes;
    vector_width = kernel.Kernel.vector_width;
    double_buffered = double_buffer;
  }

let summarize params kernel (variant : Kernel.variant) =
  Result.map
    (fun _spm ->
      let active =
        Kernel.effective_active_cpes kernel ~grain:variant.grain ~requested:variant.active_cpes
      in
      let gen unroll =
        Codegen.block ~ialu_per_access:kernel.Kernel.ialu_per_access ~unroll kernel.Kernel.body
      in
      let block_u = gen variant.unroll in
      let blocks = (block_u, if variant.unroll = 1 then block_u else gen 1) in
      let per_cpe_chunks =
        Array.init active (fun cpe ->
            Kernel.chunks_of_cpe kernel ~grain:variant.grain ~active_cpes:active ~cpe)
      in
      build_summary params kernel ~blocks ~unroll:variant.unroll ~active
        ~double_buffer:variant.double_buffer per_cpe_chunks)
    (Lower.check params kernel variant)

(* ------------------------------------------------------------------ *)
(* The item-tree lowering: per-CPE programs as {!Sw_isa.Program} item
   lists, built chunk by chunk with fresh code blocks. *)

(* Compute items for the elements [first, first+n): per-element Gloads
   interleaved with per-element compute when the kernel is irregular,
   otherwise a single fused compute over the chunk. *)
let compute_items kernel ~(blocks : Sw_isa.Instr.t array * Sw_isa.Instr.t array) ~unroll ~first ~n =
  let block_u, block_r = blocks in
  let per_elem_trips = kernel.Kernel.body_trips_per_element in
  let mk_compute total_scalar_iters =
    let total_iters = vector_iters kernel total_scalar_iters in
    let trips_u, rem = Codegen.trips_for ~total_iters ~unroll in
    let items = ref [] in
    if trips_u > 0 then items := Program.Compute { block = block_u; trips = trips_u } :: !items;
    if rem > 0 then items := Program.Compute { block = block_r; trips = rem } :: !items;
    List.rev !items
  in
  match kernel.Kernel.gloads with
  | None -> mk_compute (n * per_elem_trips)
  | Some g ->
      List.concat
        (List.init n (fun k ->
             let elem = first + k in
             let loads =
               List.init (g.Kernel.count_for elem) (fun j ->
                   Program.Gload { addr = g.Kernel.addr_for elem j; bytes = g.Kernel.g_bytes })
             in
             loads @ mk_compute per_elem_trips))

(* Register-spill Gloads the native compiler emits at small copy
   granularities (Section V-C1); addresses fall in the first array's
   chunk region. *)
let spill_items kernel ~grain ~first =
  match (kernel.Kernel.spill_gloads, kernel.Kernel.copies) with
  | None, _ | _, [] -> []
  | Some f, c :: _ ->
      let count = Stdlib.max 0 (f grain) in
      let base = c.Kernel.base_addr + (first * c.Kernel.bytes_per_elem) in
      List.init count (fun j -> Program.Gload { addr = base + (j * 8); bytes = 8 })

(* Synchronous schedule: copy-in, wait, compute, copy-out, wait. *)
(* All transfers of one copy intrinsic form one logical DMA request. *)
let group_issue kernel ~pred ~dir ~tag (first, n) =
  let accesses =
    List.filter_map
      (fun c -> if pred c then Some (Kernel.chunk_access c ~first ~n) else None)
      kernel.Kernel.copies
  in
  if accesses = [] then [] else [ Program.Dma_issue { dir; accesses; tag } ]

let sync_chunk kernel ~blocks ~unroll (first, n) =
  let ins = group_issue kernel ~pred:Kernel.copied_in ~dir:Program.Get ~tag:0 (first, n) in
  let outs = group_issue kernel ~pred:Kernel.copied_out ~dir:Program.Put ~tag:0 (first, n) in
  let wait_in = if ins = [] then [] else [ Program.Dma_wait 0 ] in
  let wait_out = if outs = [] then [] else [ Program.Dma_wait 0 ] in
  ins @ wait_in
  @ spill_items kernel ~grain:n ~first
  @ compute_items kernel ~blocks ~unroll ~first ~n
  @ outs @ wait_out

(* Double-buffered schedule over a CPE's chunk list.  Buffer b of chunk k
   is k mod 2; tags: in_tag b = b, out_tag b = 2 + b. *)
let double_buffered_items kernel ~blocks ~unroll chunks =
  let in_tag b = b and out_tag b = 2 + b in
  let issues ~pred ~dir ~tag chunk = group_issue kernel ~pred ~dir ~tag chunk in
  let chunks = Array.of_list chunks in
  let nchunks = Array.length chunks in
  if nchunks = 0 then []
  else begin
    let items = ref [] in
    let push is = items := List.rev_append is !items in
    push (issues ~pred:Kernel.copied_in ~dir:Program.Get ~tag:(in_tag 0) chunks.(0));
    for k = 0 to nchunks - 1 do
      let b = k mod 2 in
      push [ Program.Dma_wait (in_tag b) ];
      if k + 1 < nchunks then begin
        let b' = (k + 1) mod 2 in
        (* the next copy-in reuses buffer b'; its previous copy-out must
           have drained first *)
        push [ Program.Dma_wait (out_tag b') ];
        push (issues ~pred:Kernel.copied_in ~dir:Program.Get ~tag:(in_tag b') chunks.(k + 1))
      end;
      let first, n = chunks.(k) in
      push (spill_items kernel ~grain:n ~first);
      push (compute_items kernel ~blocks ~unroll ~first ~n);
      push (issues ~pred:Kernel.copied_out ~dir:Program.Put ~tag:(out_tag b) chunks.(k))
    done;
    push [ Program.Dma_wait_all ];
    List.rev !items
  end

let lower params kernel (variant : Kernel.variant) =
  Result.bind (Lower.check params kernel variant) (fun _spm ->
      Result.map
        (fun () ->
          let active =
            Kernel.effective_active_cpes kernel ~grain:variant.grain ~requested:variant.active_cpes
          in
          let gen unroll =
            Codegen.block ~ialu_per_access:kernel.Kernel.ialu_per_access ~unroll kernel.Kernel.body
          in
          let block_u = gen variant.unroll in
          let blocks = (block_u, if variant.unroll = 1 then block_u else gen 1) in
          Array.init active (fun cpe ->
              let chunks =
                Kernel.chunks_of_cpe kernel ~grain:variant.grain ~active_cpes:active ~cpe
              in
              Array.of_list
                (if variant.double_buffer then
                   double_buffered_items kernel ~blocks ~unroll:variant.unroll chunks
                 else List.concat_map (sync_chunk kernel ~blocks ~unroll:variant.unroll) chunks)))
        (Lower.check_gloads params kernel))
