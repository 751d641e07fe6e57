(** E21 — sharded scale-out ladder: the same region/hub ping-pong workload
    at 1/2/4/8 parallel shards, reporting deliveries (which must agree on
    every rung), engine events, wall time, barrier windows, mean
    per-shard barrier wait and packets/sec. *)

val run : unit -> Table.t
