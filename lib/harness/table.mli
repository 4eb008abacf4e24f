(** Plain-text table rendering for experiment reports. *)

type t

val create : header:string list -> t

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val header : t -> string list

val rows : t -> string list list
(** The data rows in insertion order; the raw cells
    the determinism tests compare across [--jobs] values. *)

val render : t -> string
(** Column-aligned ASCII table. *)

val print : t -> unit
(** [render] to stdout. *)

val cell_f : float -> string
(** Fixed three-decimal float formatting used throughout the reports. *)

val cell_pct : float -> string
(** A ratio as a percentage with one decimal. *)
