type pid = int

type ckpt_id = pid * int

type ckpt_kind =
  | Initial
  | Basic
  | Forced
  | Final

type ckpt = {
  owner : pid;
  index : int;
  kind : ckpt_kind;
  pos : int;
  time : int;
  tdv : int array option;
}

type message = {
  id : int;
  src : pid;
  dst : pid;
  send_pos : int;
  recv_pos : int;
  send_interval : int;
  recv_interval : int;
}

type event =
  | Send of int
  | Recv of int
  | Ckpt of int
  | Internal

let ckpt_kind_to_string = function
  | Initial -> "initial"
  | Basic -> "basic"
  | Forced -> "forced"
  | Final -> "final"

let pp_ckpt_id ppf (i, x) = Format.fprintf ppf "C(%d,%d)" i x
