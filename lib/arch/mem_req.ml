type access =
  | Contiguous of { addr : int; bytes : int }
  | Strided of { addr : int; row_bytes : int; stride : int; rows : int }

let contiguous ~addr ~bytes =
  if bytes <= 0 then invalid_arg "Mem_req.contiguous: bytes must be positive";
  if addr < 0 then invalid_arg "Mem_req.contiguous: addr must be non-negative";
  Contiguous { addr; bytes }

let strided ~addr ~row_bytes ~stride ~rows =
  if row_bytes <= 0 || rows <= 0 then invalid_arg "Mem_req.strided: sizes must be positive";
  if addr < 0 then invalid_arg "Mem_req.strided: addr must be non-negative";
  if stride < row_bytes then invalid_arg "Mem_req.strided: stride must cover row_bytes";
  if rows = 1 then Contiguous { addr; bytes = row_bytes }
  else Strided { addr; row_bytes; stride; rows }

let payload_bytes = function
  | Contiguous { bytes; _ } -> bytes
  | Strided { row_bytes; rows; _ } -> row_bytes * rows

let chunks = function
  | Contiguous { addr; bytes } -> [ (addr, bytes) ]
  | Strided { addr; row_bytes; stride; rows } ->
      List.init rows (fun i -> (addr + (i * stride), row_bytes))

let blocks_touched ~trans_size ~addr ~bytes =
  let first = addr / trans_size in
  let last = (addr + bytes - 1) / trans_size in
  last - first + 1

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let transactions ~trans_size = function
  | Contiguous { addr; bytes } -> blocks_touched ~trans_size ~addr ~bytes
  | Strided { addr; row_bytes; stride; rows } ->
      (* a row's block count depends only on its start address mod
         trans_size, which repeats every [period] rows: sum one period *)
      let period = trans_size / gcd trans_size (stride mod trans_size) in
      let sum rows =
        let acc = ref 0 in
        for i = 0 to rows - 1 do
          acc := !acc + blocks_touched ~trans_size ~addr:(addr + (i * stride)) ~bytes:row_bytes
        done;
        !acc
      in
      if rows <= period then sum rows else (rows / period * sum period) + sum (rows mod period)

let ceil_div a b = (a + b - 1) / b

let mrt_model ~trans_size access =
  List.fold_left (fun acc (_, bytes) -> acc + Stdlib.max 1 (ceil_div bytes trans_size)) 0 (chunks access)

let iter_transactions ~trans_size access f =
  let visit_chunk (addr, bytes) =
    let first = addr / trans_size in
    let last = (addr + bytes - 1) / trans_size in
    for b = first to last do
      f (b * trans_size)
    done
  in
  List.iter visit_chunk (chunks access)

let wasted_fraction ~trans_size access =
  let moved = transactions ~trans_size access * trans_size in
  1.0 -. (float_of_int (payload_bytes access) /. float_of_int moved)

let route_cg ~trans_size ~n_cgs block_addr = block_addr / trans_size mod n_cgs

let count_per_cg ~trans_size ~n_cgs access counts =
  (* the blocks of one chunk form the integer range [first..last];
     controller r takes the members congruent to r (mod n_cgs), counted
     with [members of [0, x) congruent to r] = (x + n_cgs - 1 - r) /
     n_cgs — no per-transaction walk *)
  let chunk addr bytes =
    let first = addr / trans_size in
    let last = (addr + bytes - 1) / trans_size in
    for r = 0 to n_cgs - 1 do
      let before_first = (first + n_cgs - 1 - r) / n_cgs in
      let through_last = (last + n_cgs - r) / n_cgs in
      counts.(r) <- counts.(r) + through_last - before_first
    done
  in
  match access with
  | Contiguous { addr; bytes } -> chunk addr bytes
  | Strided { addr; row_bytes; stride; rows } ->
      for i = 0 to rows - 1 do
        chunk (addr + (i * stride)) row_bytes
      done
