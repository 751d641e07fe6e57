(* The flight recorder: the user-facing capture API over a
   {!Netsim.Trace.ring}.

   The ring itself — the preallocated scalar-array store the data plane
   writes into — lives in [Trace] so the emit fast path reaches it with
   a direct known-function call (no generic dispatch, no float boxing).
   This module owns everything cold: creation, process-wide attachment,
   tailing, and the JSONL dump. *)

open Netsim

type t = { ring : Trace.ring; mutable handle : Trace.sink option }

let create ?sample_every ?seed ~capacity () =
  { ring = Trace.make_ring ?sample_every ?seed ~capacity (); handle = None }

let capacity t = Trace.ring_capacity t.ring
let seen t = Trace.ring_seen t.ring
let kept t = Trace.ring_kept t.ring
let length t = Trace.ring_length t.ring
let sampled t flow = Trace.ring_sampled t.ring flow
let note t r = Trace.ring_store_record t.ring r
let clear t = Trace.ring_clear t.ring

let install t =
  if t.handle = None then t.handle <- Some (Trace.attach_ring t.ring)

let uninstall t =
  Option.iter Trace.remove_sink t.handle;
  t.handle <- None

let records t = Trace.ring_records t.ring

let tail ?last t =
  let rs = records t in
  match last with
  | None -> rs
  | Some k ->
      if k < 0 then invalid_arg "Recorder.tail: negative count"
      else
        let n = List.length rs in
        if n <= k then rs else List.filteri (fun i _ -> i >= n - k) rs

let dump_jsonl oc t = Export.write_records oc (records t)
