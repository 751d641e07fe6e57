open Netsim

let ( let* ) = Result.bind

(* ---------- hex ---------- *)

(* [hex_pairs.(c)] holds byte [c]'s two lowercase hex digits as one
   little-endian 16-bit value, so a single [add_uint16_le] writes both. *)
let hex_pairs =
  let digit d = Char.code "0123456789abcdef".[d] in
  Array.init 256 (fun c -> digit (c lsr 4) lor (digit (c land 15) lsl 8))

let add_hex buf b =
  for i = 0 to Bytes.length b - 1 do
    Buffer.add_uint16_le buf
      (Array.unsafe_get hex_pairs (Char.code (Bytes.unsafe_get b i)))
  done

let hex_of_bytes b =
  let buf = Buffer.create (2 * Bytes.length b) in
  add_hex buf b;
  Buffer.contents buf

let bytes_of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd-length hex string"
  else
    let digit c =
      match c with
      | '0' .. '9' -> Ok (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Ok (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Ok (Char.code c - Char.code 'A' + 10)
      | _ -> Error (Printf.sprintf "bad hex digit %C" c)
    in
    let out = Bytes.create (n / 2) in
    let rec go i =
      if i >= n / 2 then Ok out
      else
        let* hi = digit s.[2 * i] in
        let* lo = digit s.[(2 * i) + 1] in
        Bytes.set out i (Char.chr ((hi lsl 4) lor lo));
        go (i + 1)
    in
    go 0

(* ---------- field helpers ---------- *)

let req j name conv =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad field %S" name))

(* ---------- drop reasons ---------- *)

let reason_name = function
  | Trace.Ingress_filter -> "ingress-source-filter"
  | Trace.Transit_filter -> "transit-filter"
  | Trace.Firewall _ -> "firewall"
  | Trace.Ttl_expired -> "ttl-expired"
  | Trace.No_route -> "no-route"
  | Trace.Mtu_exceeded -> "mtu-exceeded"
  | Trace.Arp_unresolved -> "arp-unresolved"
  | Trace.Not_for_me -> "not-for-me"
  | Trace.Link_down -> "link-down"
  | Trace.Link_loss -> "link-loss"
  | Trace.Link_flap -> "link-flap"
  | Trace.Partitioned -> "partitioned"
  | Trace.Reassembly_timeout -> "reassembly-timeout"
  | Trace.Custom _ -> "custom"

let drop_reason_fields reason =
  ("reason", Json.String (reason_name reason))
  ::
  (match reason with
  | Trace.Firewall s | Trace.Custom s -> [ ("detail", Json.String s) ]
  | _ -> [])

let drop_reason_of_json j =
  let* reason = req j "reason" Json.get_string in
  let detail () = req j "detail" Json.get_string in
  match reason with
  | "ingress-source-filter" -> Ok Trace.Ingress_filter
  | "transit-filter" -> Ok Trace.Transit_filter
  | "firewall" ->
      let* s = detail () in
      Ok (Trace.Firewall s)
  | "ttl-expired" -> Ok Trace.Ttl_expired
  | "no-route" -> Ok Trace.No_route
  | "mtu-exceeded" -> Ok Trace.Mtu_exceeded
  | "arp-unresolved" -> Ok Trace.Arp_unresolved
  | "not-for-me" -> Ok Trace.Not_for_me
  | "link-down" -> Ok Trace.Link_down
  | "link-loss" -> Ok Trace.Link_loss
  | "link-flap" -> Ok Trace.Link_flap
  | "partitioned" -> Ok Trace.Partitioned
  | "reassembly-timeout" -> Ok Trace.Reassembly_timeout
  | "custom" ->
      let* s = detail () in
      Ok (Trace.Custom s)
  | other -> Error (Printf.sprintf "unknown drop reason %S" other)

(* ---------- frames ---------- *)

let frame_of_json j =
  let* id = req j "id" Json.get_int in
  let* flow = req j "flow" Json.get_int in
  let* hex = req j "pkt" Json.get_string in
  let* wire = bytes_of_hex hex in
  let* pkt = Ipv4_packet.decode wire in
  Ok { Trace.id; flow; pkt }

(* ---------- records ---------- *)

let record_of_json j =
  let* time = req j "t" Json.get_float in
  let* kind = req j "type" Json.get_string in
  let node () = req j "node" Json.get_string in
  let frame () =
    match Json.member "frame" j with
    | None -> Error "missing field \"frame\""
    | Some f -> frame_of_json f
  in
  let* event =
    match kind with
    | "send" ->
        let* node = node () in
        let* frame = frame () in
        Ok (Trace.Send { node; frame })
    | "transmit" ->
        let* link = req j "link" Json.get_string in
        let* bytes = req j "bytes" Json.get_int in
        let* frame = frame () in
        Ok (Trace.Transmit { link; frame; bytes })
    | "forward" ->
        let* node = node () in
        let* in_iface = req j "in" Json.get_string in
        let* out_iface = req j "out" Json.get_string in
        let* frame = frame () in
        Ok (Trace.Forward { node; in_iface; out_iface; frame })
    | "drop" ->
        let* node = node () in
        let* reason = drop_reason_of_json j in
        let* frame = frame () in
        Ok (Trace.Drop { node; reason; frame })
    | "deliver" ->
        let* node = node () in
        let* frame = frame () in
        Ok (Trace.Deliver { node; frame })
    | "encapsulate" ->
        let* node = node () in
        let* frame = frame () in
        Ok (Trace.Encapsulate { node; frame })
    | "decapsulate" ->
        let* node = node () in
        let* frame = frame () in
        Ok (Trace.Decapsulate { node; frame })
    | "icmp-error" ->
        let* node = node () in
        let* reason = drop_reason_of_json j in
        let* frame = frame () in
        Ok (Trace.Icmp_error { node; reason; frame })
    | other -> Error (Printf.sprintf "unknown event type %S" other)
  in
  Ok { Trace.time; event }

(* ---------- the JSONL writer ---------- *)

(* One record's line is appended straight into a buffer: keys and kind
   tags are literals, numbers are written as ints, only names and drop
   details go through the JSON string escaper, and the packet's wire
   bytes are hex-encoded in place. *)

(* Per-domain scratch, reused by every call on that domain.  [buf] is
   cleared before each line, so it never carries a record over; the
   memo holds the text of the last timestamp, keyed on its bits (so
   [-0.0] and [0.0] stay distinct) — consecutive records often share a
   time.  Nothing is keyed on packet identity: [Pool] refills payload
   bytes in place. *)
type scratch = {
  buf : Buffer.t;
  mutable time_bits : int64;
  mutable time_text : string;
}

let scratch =
  Domain.DLS.new_key (fun () ->
      {
        buf = Buffer.create 4096;
        time_bits = Int64.bits_of_float 0.0;
        time_text = Json.float_to_string 0.0;
      })

let add_time s t =
  let bits = Int64.bits_of_float t in
  if not (Int64.equal bits s.time_bits) then begin
    s.time_bits <- bits;
    s.time_text <- Json.float_to_string t
  end;
  Buffer.add_string s.buf s.time_text

let add_int buf i = Buffer.add_string buf (string_of_int i)

(* [add_field buf prefix v]: a literal [,"key":] then [v] as a string. *)
let add_field buf prefix v =
  Buffer.add_string buf prefix;
  Json.escape_string buf v

let add_reason buf reason =
  Buffer.add_string buf ",\"reason\":\"";
  Buffer.add_string buf (reason_name reason);
  Buffer.add_char buf '"';
  match reason with
  | Trace.Firewall s | Trace.Custom s -> add_field buf ",\"detail\":" s
  | _ -> ()

let add_frame buf (f : Trace.frame_info) =
  let p = f.Trace.pkt in
  Buffer.add_string buf ",\"frame\":{\"id\":";
  add_int buf f.Trace.id;
  Buffer.add_string buf ",\"flow\":";
  add_int buf f.Trace.flow;
  Buffer.add_string buf ",\"src\":\"";
  Buffer.add_string buf (Ipv4_addr.to_string p.Ipv4_packet.src);
  Buffer.add_string buf "\",\"dst\":\"";
  Buffer.add_string buf (Ipv4_addr.to_string p.Ipv4_packet.dst);
  Buffer.add_string buf "\",\"proto\":";
  add_int buf (Ipv4_packet.protocol_to_int p.Ipv4_packet.protocol);
  Buffer.add_string buf ",\"len\":";
  add_int buf (Ipv4_packet.byte_length p);
  Buffer.add_string buf ",\"pkt\":\"";
  add_hex buf (Ipv4_packet.encode p);
  Buffer.add_string buf "\"}"

let add_record s (r : Trace.record) =
  let buf = s.buf in
  Buffer.add_string buf "{\"t\":";
  add_time s r.Trace.time;
  let frame =
    match r.Trace.event with
    | Trace.Send { node; frame } ->
        add_field buf ",\"type\":\"send\",\"node\":" node;
        frame
    | Trace.Transmit { link; frame; bytes } ->
        add_field buf ",\"type\":\"transmit\",\"link\":" link;
        Buffer.add_string buf ",\"bytes\":";
        add_int buf bytes;
        frame
    | Trace.Forward { node; in_iface; out_iface; frame } ->
        add_field buf ",\"type\":\"forward\",\"node\":" node;
        add_field buf ",\"in\":" in_iface;
        add_field buf ",\"out\":" out_iface;
        frame
    | Trace.Drop { node; reason; frame } ->
        add_field buf ",\"type\":\"drop\",\"node\":" node;
        add_reason buf reason;
        frame
    | Trace.Deliver { node; frame } ->
        add_field buf ",\"type\":\"deliver\",\"node\":" node;
        frame
    | Trace.Encapsulate { node; frame } ->
        add_field buf ",\"type\":\"encapsulate\",\"node\":" node;
        frame
    | Trace.Decapsulate { node; frame } ->
        add_field buf ",\"type\":\"decapsulate\",\"node\":" node;
        frame
    | Trace.Icmp_error { node; reason; frame } ->
        add_field buf ",\"type\":\"icmp-error\",\"node\":" node;
        add_reason buf reason;
        frame
  in
  add_frame buf frame;
  Buffer.add_char buf '}'

(* The scratch buffer holding exactly [r]'s line. *)
let line_buffer r =
  let s = Domain.DLS.get scratch in
  Buffer.clear s.buf;
  add_record s r;
  s.buf

let line_of_record r = Buffer.contents (line_buffer r)

let sink_to_channel oc r =
  let buf = line_buffer r in
  Buffer.add_char buf '\n';
  Buffer.output_buffer oc buf

let write_records oc rs =
  List.iter (sink_to_channel oc) rs;
  List.length rs

let write_trace_jsonl oc trace = write_records oc (Trace.records trace)

let read_trace_jsonl ic =
  let rec go acc lineno =
    match input_line ic with
    | exception End_of_file -> Ok (List.rev acc)
    | "" -> go acc (lineno + 1)
    | line -> (
        match Json.of_string line with
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
        | Ok j -> (
            match record_of_json j with
            | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
            | Ok r -> go (r :: acc) (lineno + 1)))
  in
  go [] 1

(* ---------- spans and engine stats ---------- *)

let json_of_span (s : Span.t) =
  let opt_time = function
    | Some t -> Json.Float t
    | None -> Json.Null
  in
  Json.Obj
    [
      ("flow", Json.Int s.Span.flow);
      ("send_time", opt_time s.Span.send_time);
      ("deliver_time", opt_time s.Span.deliver_time);
      ("latency", opt_time s.Span.latency);
      ("transmissions", Json.Int s.Span.transmissions);
      ("wire_bytes", Json.Int s.Span.wire_bytes);
      ("encap_depth", Json.Int s.Span.encap_depth);
      ( "drops",
        Json.List
          (List.map
             (fun (node, reason) ->
               Json.Obj
                 (("node", Json.String node) :: drop_reason_fields reason))
             s.Span.drops) );
      ( "delivered_to",
        Json.List (List.map (fun n -> Json.String n) s.Span.delivered_to) );
    ]

let json_of_engine_stats (s : Engine.stats) =
  Json.Obj
    [
      ("executed", Json.Int s.Engine.executed);
      ("pending", Json.Int s.Engine.pending);
      ("max_pending", Json.Int s.Engine.max_pending);
      ("truncated", Json.Int s.Engine.truncated);
      ("sim_time", Json.Float s.Engine.sim_time);
      ("wall_time", Json.Float s.Engine.wall_time);
      ("cpu_time", Json.Float s.Engine.cpu_time);
    ]
