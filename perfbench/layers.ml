(* Per-span totals folded from a collected event list: for each span
   kind, its count, total time, self time (the total minus the time its
   direct child spans cover) and the sum of every numeric end argument
   (the harness puts an operation's allocation, key count and sizes
   there). Spans nest on one thread, so a stack pairs each end with the
   innermost open begin, as Profile.of_events does. A kind is the
   span's category and name, except that the checker's per-operator
   spans and the daemon's per-request spans, named after what they
   handle, count as ("operator", "*") and ("serve", "*"). *)

open Entangle_trace

type row = {
  count : int;
  total_s : float;
  self_s : float;
  sums : (string * float) list;
}

let empty = { count = 0; total_s = 0.; self_s = 0.; sums = [] }

type t = (string * string, row) Hashtbl.t

let kind (ev : Event.t) =
  match ev.cat with
  | "operator" | "serve" -> (ev.cat, "*")
  | _ -> (ev.cat, ev.name)

let find (t : t) ~cat name =
  Option.value (Hashtbl.find_opt t (cat, name)) ~default:empty

let sum row key = Option.value (List.assoc_opt key row.sums) ~default:0.

let add_sums sums (args : (string * Event.value) list) =
  List.fold_left
    (fun sums (key, v) ->
      let x =
        match v with
        | Event.Int n -> Some (float_of_int n)
        | Event.Float f -> Some f
        | Event.Str _ | Event.Bool _ -> None
      in
      match x with
      | None -> sums
      | Some x ->
          let prev = Option.value (List.assoc_opt key sums) ~default:0. in
          (key, prev +. x) :: List.remove_assoc key sums)
    sums args

let fold (events : Event.t list) : t =
  let t = Hashtbl.create 64 in
  (* each open span with the time its children have covered so far *)
  let stack = ref [] in
  List.iter
    (fun (ev : Event.t) ->
      match (ev.phase, !stack) with
      | Event.Begin, _ -> stack := (ev, ref 0.) :: !stack
      | Event.End, (opening, children) :: rest ->
          stack := rest;
          let dur = Float.max 0. (ev.ts -. opening.ts) in
          let r = Option.value (Hashtbl.find_opt t (kind opening)) ~default:empty in
          Hashtbl.replace t (kind opening)
            {
              count = r.count + 1;
              total_s = r.total_s +. dur;
              self_s = r.self_s +. Float.max 0. (dur -. !children);
              sums = add_sums r.sums ev.args;
            };
          (match rest with (_, parent) :: _ -> parent := !parent +. dur | [] -> ())
      | Event.End, [] | Event.Counter, _ | Event.Instant, _ -> ())
    events;
  t

(* The [start, stop] intervals of the spans of category [cat] named
   [name] ([""] for any name), in the order they end. *)
let intervals (events : Event.t list) ~cat ~name =
  let stack = ref [] and out = ref [] in
  List.iter
    (fun (ev : Event.t) ->
      match (ev.phase, !stack) with
      | Event.Begin, _ -> stack := ev :: !stack
      | Event.End, opening :: rest ->
          stack := rest;
          if opening.cat = cat && (name = "" || opening.name = name) then
            out := (opening.ts, ev.ts) :: !out
      | _ -> ())
    events;
  List.rev !out

(* The total time of the [inner] intervals, each cut off where the
   [outer] interval it starts in ends. The daemon's thread ends a
   request's span only when it next holds the runtime lock, which can
   be well after the client, on the same domain, has read the reply. *)
let clipped_s ~outer inner =
  let outer = Array.of_list (List.sort compare outer) in
  let n = Array.length outer in
  List.fold_left
    (fun acc (b, e) ->
      (* the last outer interval starting at or before [b] *)
      let rec find lo hi =
        if lo >= hi then lo - 1
        else
          let mid = (lo + hi) / 2 in
          if fst outer.(mid) <= b then find (mid + 1) hi else find lo mid
      in
      let i = find 0 n in
      let stop =
        if i >= 0 && b <= snd outer.(i) then Float.min e (snd outer.(i)) else e
      in
      acc +. Float.max 0. (stop -. b))
    0. inner
