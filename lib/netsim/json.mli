(** A minimal JSON value type with a printer and a parser.

    The simulator and the observability layer need machine-readable output
    (fault-plan repro files, JSONL trace export, metric snapshots, bench
    results) without adding dependencies the container does not ship, so
    this is a small self-contained implementation: no streaming, strings
    are OCaml strings (UTF-8 pass
    through; [\uXXXX] escapes are decoded to UTF-8 on parse), numbers are
    [Int] when they look integral on the wire and [Float] otherwise.
    Floats are printed with the shortest decimal representation that
    round-trips, so [of_string (to_string j) = Ok j] for every value this
    library itself produces. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering (no spaces — suitable for JSONL). *)

val to_buffer : Buffer.t -> t -> unit

val float_to_string : float -> string
(** The text {!to_string} writes for [Float f]: the shortest of
    [%.15g]/[%.16g]/[%.17g] that round-trips, with [".0"] appended when
    that has no ['.'] or exponent; ["null"] for NaN and infinities. *)

val escape_string : Buffer.t -> string -> unit
(** Append [s] as a JSON string literal, quotes included — what
    {!to_buffer} writes for [String s]. *)

val of_string : string -> (t, string) result
(** Parse a single JSON value; trailing garbage is an error. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on absent field or non-object. *)

val get_int : t -> int option
(** [Int], or a [Float] with an integral value. *)

val get_float : t -> float option
(** [Float] or [Int]. *)

val get_string : t -> string option
val get_bool : t -> bool option
val get_list : t -> t list option
val pp : Format.formatter -> t -> unit
