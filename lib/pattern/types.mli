(** Shared vocabulary of checkpoint and communication patterns.

    Conventions, following the paper:
    - processes are numbered [0 .. n-1] (the paper writes [P_1 .. P_n]);
    - [C_{i,x}] is the [x]-th local checkpoint of process [i], with
      [C_{i,0}] the mandatory initial checkpoint;
    - the checkpoint interval [I_{i,x}] ([x >= 1]) is the sequence of events
      between [C_{i,x-1}] and [C_{i,x}]: an event "in interval [x]" happens
      {e before} checkpoint [x];
    - every complete pattern ends with a final checkpoint on each process so
      that every event belongs to a finished interval. *)

type pid = int
(** A process identifier in [\[0, n)]. *)

type ckpt_id = pid * int
(** [(i, x)] designates [C_{i,x}]. *)

type ckpt_kind =
  | Initial  (** the mandatory [C_{i,0}] *)
  | Basic  (** taken independently by the process *)
  | Forced  (** induced by a communication-induced checkpointing protocol *)
  | Final  (** appended when the computation terminates *)

type ckpt = {
  owner : pid;
  index : int;  (** [x] in [C_{i,x}] *)
  kind : ckpt_kind;
  pos : int;  (** position in the owner's event sequence *)
  time : int;  (** simulated time (0 for hand-built patterns) *)
  tdv : int array option;
      (** transitive dependency vector recorded on-line by the protocol
          when it took this checkpoint, if the protocol maintains one *)
}

type message = {
  id : int;
  src : pid;
  dst : pid;
  send_pos : int;  (** position of the send event in [src]'s sequence *)
  recv_pos : int;  (** position of the delivery event in [dst]'s sequence *)
  send_interval : int;  (** [x] such that the send belongs to [I_{src,x}] *)
  recv_interval : int;  (** [y] such that the delivery belongs to [I_{dst,y}] *)
  send_gseq : int;  (** global sequence number of the send event *)
  recv_gseq : int;  (** global sequence number of the delivery event *)
}

type event =
  | Send of int  (** message id *)
  | Recv of int  (** message id *)
  | Ckpt of int  (** checkpoint index *)
  | Internal

val ckpt_kind_to_string : ckpt_kind -> string

val pp_ckpt_id : Format.formatter -> ckpt_id -> unit
(** Prints [C_{i,x}] as ["C(i,x)"]. *)
