(* Flat struct-of-arrays programs.  See flat.mli. *)

let op_compute = 0

let op_dma_issue = 1

let op_dma_wait = 2

let op_wait_all = 3

let op_gload = 4

let op_repeat = 5

type baked = {
  trans_size : int;
  n_cgs : int;
  delta_delay : int;
  l_float : int;
  l_fixed : int;
  l_spm : int;
  l_div_sqrt : int;
}

let baked_of (p : Sw_arch.Params.t) =
  {
    trans_size = p.trans_size;
    n_cgs = p.n_cgs;
    delta_delay = p.delta_delay;
    l_float = p.l_float;
    l_fixed = p.l_fixed;
    l_spm = p.l_spm;
    l_div_sqrt = p.l_div_sqrt;
  }

let mismatch b (p : Sw_arch.Params.t) =
  List.find_map
    (fun (field, mine, theirs) -> if mine <> theirs then Some (field, mine, theirs) else None)
    [
      ("trans_size", b.trans_size, p.trans_size);
      ("n_cgs", b.n_cgs, p.n_cgs);
      ("delta_delay", b.delta_delay, p.delta_delay);
      ("l_float", b.l_float, p.l_float);
      ("l_fixed", b.l_fixed, p.l_fixed);
      ("l_spm", b.l_spm, p.l_spm);
      ("l_div_sqrt", b.l_div_sqrt, p.l_div_sqrt);
    ]

type t = {
  baked : baked;
  c_op : int array;
  c_arg : int array;
  c_arg2 : int array;
  c_cost : float array;
  r_tag : int array;
  r_orig : int array;
  r_payload : int array;
  r_stream : float array;
  r_tail : float array;
  r_permc : int array;
  k_ntags : int;
  k_depth : int;
}

let length t = Array.length t.c_op

let dma_rows t = Array.length t.r_payload

let payload_bytes t = Array.fold_left ( + ) 0 t.r_payload

type builder = {
  flat : t;
  mutable pos : int;
  mutable row : int;
  (* the program's tags in dense-id order; tag populations are tiny *)
  mutable tags : int array;
  mutable ntags : int;
}

let builder baked ~items ~rows =
  let ncgs = baked.n_cgs in
  {
    flat =
      {
        baked;
        c_op = Array.make items 0;
        c_arg = Array.make items 0;
        c_arg2 = Array.make items 0;
        c_cost = Array.make items 0.0;
        r_tag = Array.make rows 0;
        r_orig = Array.make rows 0;
        r_payload = Array.make rows 0;
        r_stream = Array.make rows 0.0;
        r_tail = Array.make rows 0.0;
        r_permc = Array.make (rows * ncgs) 0;
        k_ntags = 0;
        k_depth = 1;
      };
    pos = 0;
    row = 0;
    tags = Array.make 4 0;
    ntags = 0;
  }

(* Dense tag ids in order of first appearance (issue or wait). *)
let rec find_tag b tag i = if i = b.ntags then -1 else if b.tags.(i) = tag then i else find_tag b tag (i + 1)

let tag_id b tag =
  match find_tag b tag 0 with
  | -1 ->
      if b.ntags = Array.length b.tags then begin
        let grown = Array.make (2 * b.ntags) 0 in
        Array.blit b.tags 0 grown 0 b.ntags;
        b.tags <- grown
      end;
      let id = b.ntags in
      b.tags.(id) <- tag;
      b.ntags <- id + 1;
      id
  | id -> id

let[@inline] next b op =
  let self = b.pos in
  b.pos <- self + 1;
  b.flat.c_op.(self) <- op;
  self

let[@inline] compute b cost =
  let self = next b op_compute in
  b.flat.c_cost.(self) <- cost

let dma_issue b ~tag ~payload counts off =
  let f = b.flat in
  let self = next b op_dma_issue in
  let row = b.row in
  b.row <- row + 1;
  let ncgs = f.baked.n_cgs in
  let m_total = ref 0 in
  for mc = 0 to ncgs - 1 do
    let m = counts.(off + mc) in
    f.r_permc.((row * ncgs) + mc) <- m;
    m_total := !m_total + m
  done;
  let dt = tag_id b tag in
  let delta = f.baked.delta_delay in
  f.c_arg.(self) <- dt;
  f.c_arg2.(self) <- row;
  f.r_tag.(row) <- dt;
  f.r_orig.(row) <- tag;
  f.r_payload.(row) <- payload;
  f.r_stream.(row) <- float_of_int !m_total *. float_of_int delta;
  f.r_tail.(row) <- float_of_int ((!m_total - 1) * delta)

let[@inline] dma_wait b tag =
  let self = next b op_dma_wait in
  b.flat.c_arg.(self) <- tag_id b tag

let[@inline] wait_all b = ignore (next b op_wait_all)

let[@inline] gload b ~addr ~bytes =
  let self = next b op_gload in
  b.flat.c_arg.(self) <- addr;
  b.flat.c_arg2.(self) <- bytes

let repeat_open b ~trips =
  let self = next b op_repeat in
  b.flat.c_arg.(self) <- trips;
  self

let repeat_close b self = b.flat.c_arg2.(self) <- b.pos - self - 1

let finish b ~depth =
  if b.pos <> Array.length b.flat.c_op || b.row <> Array.length b.flat.r_payload then
    invalid_arg
      (Printf.sprintf "Flat.finish: sized for %d items and %d rows, emitted %d and %d"
         (Array.length b.flat.c_op) (Array.length b.flat.r_payload) b.pos b.row);
  { b.flat with k_ntags = b.ntags; k_depth = depth }
