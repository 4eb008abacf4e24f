(** Deterministic splittable pseudo-random number generator (SplitMix64).

    All randomness of a simulation run flows from a single [t] created from
    an integer seed, which makes every run reproducible from [(seed, params)]
    alone.  The generator is the SplitMix64 construction of Steele, Lea and
    Flood: a 64-bit Weyl sequence hashed by a variant of the MurmurHash3
    finalizer.  It is fast, has a period of 2^64 and passes BigCrush; it is
    of course not cryptographic. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator.  Two generators created from
    the same seed produce the same stream. *)

val split : t -> t
(** [split t] derives a new generator statistically independent from the
    future output of [t].  [t] is advanced. *)

val derive_seed : int -> string -> int
(** [derive_seed seed label] is a non-negative seed derived from [(seed,
    label)] by a keyed SplitMix64 walk — a {!split} whose key is a string
    instead of shared generator state.  Used to give every cell of an
    experiment grid its own stream from the cell's coordinates alone, so
    results are independent of the order (or parallelism) in which cells
    run.  Deterministic; distinct labels give statistically independent
    streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive).
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [\[0;1\]]). *)

val exponential_int : t -> mean:int -> int
(** [exponential_int t ~mean] is an integer exponential waiting time with
    the given mean, at least [1].  Used for memoryless inter-event delays in
    simulated (integer) time. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place uniformly (Fisher-Yates). *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniformly chosen element of [a].
    @raise Invalid_argument if [a] is empty. *)
