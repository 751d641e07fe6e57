(* The host-speed reference: a fixed discrete-event loop written here, not
   in the simulator, so no change to the simulator can make it faster or
   slower.  It does the kinds of work the simulator does (a binary heap
   of timed closures, an allocation per event, hashing, byte buffers, a
   small live heap), and run.py times it between trials to follow the
   host's speed, which other tenants' load moves by tens of percent for
   minutes at a time. *)

type event = { at : float; seq : int; run : unit -> unit }

let run () =
  (* A live heap of about 1 MB in 64-byte blocks, touched at pseudo-random
     places by every event, like the flood worlds' own. *)
  let blocks = Array.init 16_000 (fun _ -> Bytes.create 56) in
  let cursor = ref 0 in
  let heap = ref (Array.make 1024 { at = 0.0; seq = 0; run = ignore }) in
  let size = ref 0 and seq = ref 0 and now = ref 0.0 in
  let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq) in
  let push e =
    if !size = Array.length !heap then begin
      let grown = Array.make (2 * !size) e in
      Array.blit !heap 0 grown 0 !size;
      heap := grown
    end;
    let h = !heap in
    let i = ref !size in
    incr size;
    while !i > 0 && before e h.((!i - 1) / 2) do
      h.(!i) <- h.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.(!i) <- e
  in
  let pop () =
    let h = !heap in
    let top = h.(0) in
    decr size;
    let last = h.(!size) in
    let i = ref 0 and settled = ref false in
    while not !settled do
      let l = (2 * !i) + 1 in
      if l >= !size then settled := true
      else begin
        let c = if l + 1 < !size && before h.(l + 1) h.(l) then l + 1 else l in
        if before h.(c) last then begin
          h.(!i) <- h.(c);
          i := c
        end
        else settled := true
      end
    done;
    h.(!i) <- last;
    top
  in
  let after delay run =
    incr seq;
    push { at = !now +. delay; seq = !seq; run }
  in
  let t0 = Unix.gettimeofday () in
  let table = Hashtbl.create 256 in
  let hops = ref 0 in
  for flow = 0 to 127 do
    let rec hop k () =
      incr hops;
      cursor := ((!cursor * 1103515245) + 12345) land 0x3fffffff;
      let b = blocks.(!cursor mod Array.length blocks) in
      Bytes.unsafe_set b 0 (Char.unsafe_chr (k land 255));
      let key = ((flow * 31) + k) land 1023 in
      Hashtbl.replace table key (Bytes.make (32 + ((k land 7) * 64)) 'x');
      if k < 1000 then after (0.001 +. (float_of_int (key land 15) *. 1e-4)) (hop (k + 1))
    in
    after (float_of_int flow *. 0.003) (hop 0)
  done;
  while !size > 0 do
    let e = pop () in
    now := e.at;
    e.run ()
  done;
  ignore (Sys.opaque_identity !hops);
  Unix.gettimeofday () -. t0

(* The two-core reference, for the parallel executor: windows in which the
   main domain spawns a second one, both run a short fixed allocating
   loop, and the main domain joins it, as the executor spawns a domain per
   shard per barrier window.  Its time follows what the second core and
   a domain spawn cost at the moment, which the loop above does not. *)
let run_parallel () =
  let work () =
    let table = Hashtbl.create 64 in
    let total = ref 0 in
    for i = 0 to 99 do
      let b = Bytes.make (32 + ((i land 7) * 64)) 'x' in
      Hashtbl.replace table (i land 63) b;
      total := !total + Bytes.length b
    done;
    !total
  in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 800 do
    let d = Domain.spawn work in
    let a = work () in
    ignore (Sys.opaque_identity (a + Domain.join d))
  done;
  Unix.gettimeofday () -. t0
