(* The enumerating static summary: every chunk of every CPE, every
   copied array, every strided row.  See lower_ref.mli. *)

module Mem_req = Sw_arch.Mem_req

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
