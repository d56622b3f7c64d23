(** Span log for the traced run, and the runtime's GC phases read
    in-process through [Runtime_events].

    A span is a named interval with the id of the span that caused it
    (0 for a root). Spans are recorded only while {!on} is set, held in
    memory, and written out by {!write} when the benchmark ends. *)

let on = ref false

let name_ids : (string, int) Hashtbl.t = Hashtbl.create 32

let intern nm =
  match Hashtbl.find_opt name_ids nm with
  | Some i -> i
  | None ->
      let i = Hashtbl.length name_ids in
      Hashtbl.replace name_ids nm i;
      i

let parents = Samples.create ()
let kinds = Samples.create ()
let starts = Samples.create ()
let stops = Samples.create ()

(** Record a span; returns its id (ids start at 1), or 0 — recording
    nothing — when tracing is off. *)
let span ?(parent = 0) nm t0 t1 =
  if not !on then 0
  else begin
    Samples.add parents parent;
    Samples.add kinds (intern nm);
    Samples.add starts t0;
    Samples.add stops t1;
    Samples.length stops
  end

let count () = Samples.length stops
let dur i = stops.Samples.a.(i) - starts.Samples.a.(i)

(** Self time of every span: its duration minus the time its direct
    children cover (children never overlap one another here). *)
let self_times () =
  let n = count () in
  let self = Array.init n dur in
  for i = 0 to n - 1 do
    let p = parents.Samples.a.(i) in
    if p > 0 then self.(p - 1) <- self.(p - 1) - dur i
  done;
  self

(** Durations (or, with [~self:true], self times) of every span named
    [nm], in nanoseconds. *)
let durations ?(self = false) nm =
  let out = Samples.create () in
  (match Hashtbl.find_opt name_ids nm with
   | None -> ()
   | Some k ->
       let st = if self then self_times () else [||] in
       for i = 0 to count () - 1 do
         if kinds.Samples.a.(i) = k then
           Samples.add out (if self then st.(i) else dur i)
       done);
  out

(** Write every span as [id parent name start_ns end_ns] lines, then a
    per-name summary of count, median duration and median self time. *)
let write path =
  let oc = open_out path in
  let label = Array.make (Hashtbl.length name_ids) "" in
  Hashtbl.iter (fun nm i -> label.(i) <- nm) name_ids;
  Printf.fprintf oc "# id\tparent\tname\tstart_ns\tend_ns\n";
  for i = 0 to count () - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" (i + 1) parents.Samples.a.(i)
      label.(kinds.Samples.a.(i)) starts.Samples.a.(i) stops.Samples.a.(i)
  done;
  Printf.fprintf oc "# name\tcount\tp50_ns\tself_p50_ns\n";
  Array.iter
    (fun nm ->
      let d = durations nm in
      Printf.fprintf oc "# %s\t%d\t%.0f\t%.0f\n" nm (Samples.length d)
        (Samples.median d)
        (Samples.median (durations ~self:true nm)))
    label;
  close_out oc

(** GC pauses on the main domain, from the runtime's own event ring:
    total nanoseconds in minor collections and in major slices since
    the last {!Gc_events.reset}. *)
module Gc_events = struct
  let minor_ns = ref 0
  let major_ns = ref 0
  let minor_t0 = ref 0L
  let major_t0 = ref 0L
  let cursor = ref None

  let ts t = Runtime_events.Timestamp.to_int64 t

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring t phase ->
        if ring = 0 then
          match phase with
          | Runtime_events.EV_MINOR -> minor_t0 := ts t
          | Runtime_events.EV_MAJOR_SLICE -> major_t0 := ts t
          | _ -> ())
      ~runtime_end:(fun ring t phase ->
        if ring = 0 then
          match phase with
          | Runtime_events.EV_MINOR ->
              minor_ns := !minor_ns + Int64.to_int (Int64.sub (ts t) !minor_t0)
          | Runtime_events.EV_MAJOR_SLICE ->
              major_ns := !major_ns + Int64.to_int (Int64.sub (ts t) !major_t0)
          | _ -> ())
      ()

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  (** Drain the ring into the totals; call often enough that it never
      wraps (every tower round is plenty). *)
  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)
    | None -> ()

  let reset () =
    poll ();
    minor_ns := 0;
    major_ns := 0

  let stop () =
    match !cursor with
    | Some c ->
        Runtime_events.free_cursor c;
        cursor := None;
        Runtime_events.pause ()
    | None -> ()
end
