(** 48-bit link-layer (Ethernet) addresses.

    Each world ({!Net.t}) numbers its interfaces' locally-administered
    MACs itself, so a world rebuilt in the same process gets the same
    MACs; ARP ({!Net}) maps IPv4 addresses onto these. *)

type t

val of_int : int -> t
(** @raise Invalid_argument if outside [0 .. 2^48-1]. *)

val to_int : t -> int
val of_string : string -> t
(** Parse ["aa:bb:cc:dd:ee:ff"].
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
val broadcast : t
val is_broadcast : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
