(** The forced-checkpoint predicates, as pure functions, and the
    catalogue that names them.

    Separating the predicates from the protocol state machines lets the
    test suite check the generality hierarchy of Section 5.2 directly:
    [C1 \/ C2  =>  C1 \/ C2'  =>  C_FDAS  =>  C_FDI] at every delivery, so
    the main protocol never forces a checkpoint FDAS would not also force.

    Naming follows the paper; all predicates are evaluated at a receiver
    [P_i] about to deliver a message [m]:
    - [new_dep]: [exists k, m.tdv.(k) > tdv.(k)] — [m] brings a dependency
      on a checkpoint interval the receiver did not know about;
    - [c1]: some non-causal message chain through [P_i], with no causal
      sibling known to the sender, would be created (Section 4.1.1);
    - [c2]: some non-causal chain from a [C_{k,z}] back to [C_{k,z-1}],
      breakable only by [P_i], would be created (Section 4.1.2);
    - [c2']: the first weaker variant of [c2] (Section 5.1), suggested by
      Y.-M. Wang: a causal chain returned to its own interval while
      carrying any new dependency;
    - [c_fdas]: Wang's Fixed-Dependency-After-Send test;
    - [c_fdi]: the Fixed-Dependency-Interval test (no send condition). *)

(** {1 Catalogue}

    A protocol reports the predicates that hold at a delivery as an [int]
    mask over this fixed catalogue: bit [i] stands for [names.(i)]. *)

val names : string array
(** [c1; c2; c2'; c_fdas; c_fdi], in bit order. *)

val c1_bit : int
val c2_bit : int
val c2'_bit : int
val c_fdas_bit : int
val c_fdi_bit : int

val bit_if : bool -> int -> int
(** [bit_if b bit] is [bit] if [b], else [0]. *)

val name : int -> string
(** The name of a single predicate's bit. *)

val to_names : int -> string list
(** The names of a mask's predicates, in catalogue order. *)

(** {1 Predicates}

    [sent_to], [m_simple] and [m_causal] are packed rows in the layout
    of {!Control}. *)

val c1 : sent_to:int array -> tdv:int array -> m_tdv:int array -> m_causal:int array -> bool
(** Per [k] with a new dependency, one word AND-NOT per row word:
    [sent_to.(i) land lnot m_causal.(k * w + i) <> 0], with [w] the
    length of [sent_to]. *)

val c2 : pid:int -> tdv:int array -> m_tdv:int array -> m_simple:int array -> bool

val c2' : pid:int -> tdv:int array -> m_tdv:int array -> bool

val c_fdas : after_first_send:bool -> tdv:int array -> m_tdv:int array -> bool

val c_fdi : tdv:int array -> m_tdv:int array -> bool
