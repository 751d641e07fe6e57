(** Structured export: trace events and metric snapshots as JSON / JSONL.

    Each trace record becomes one JSONL line, written straight into a
    per-domain scratch [Buffer] that every call reuses: fixed keys are
    literals, numbers are written as ints, only names and drop details
    are escaped, and the frame's packet is hex-encoded in place from its
    real wire encoding.  No [Json.t] tree is built on the way out.  The
    hex carries the whole packet — checksums included — so a decoded
    trace rebuilds full packets alongside the human-oriented summary
    fields ([src], [dst], [proto], [len]) that make the JSONL greppable.

    Lines round-trip: [record_of_json] of a parsed {!line_of_record}
    restores an equal record. *)

val record_of_json : Json.t -> (Netsim.Trace.record, string) result

val line_of_record : Netsim.Trace.record -> string
(** One JSONL line, no trailing newline. *)

val sink_to_channel : out_channel -> Netsim.Trace.record -> unit
(** Write one record as a JSONL line, newline included.  Every writer
    below goes through it; it is also the streaming sink for
    {!Netsim.Trace.add_sink}, recording worlds the caller never sees
    (e.g. inside experiment runners) as they run. *)

val write_records : out_channel -> Netsim.Trace.record list -> int
(** Write the records in order, one line each.  Returns the number of
    lines written. *)

val write_trace_jsonl : out_channel -> Netsim.Trace.t -> int
(** {!write_records} of every record in the trace, oldest first.
    Returns [Trace.length]. *)

val read_trace_jsonl : in_channel -> (Netsim.Trace.record list, string) result
(** Parse a JSONL stream produced by the writers above; blank lines are
    skipped. *)

val json_of_span : Span.t -> Json.t
val json_of_engine_stats : Netsim.Engine.stats -> Json.t
val hex_of_bytes : Bytes.t -> string
val bytes_of_hex : string -> (Bytes.t, string) result
