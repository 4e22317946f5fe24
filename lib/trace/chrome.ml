type t = {
  oc : out_channel;
  t0 : float;
  mutable count : int;
  mutable closed : bool;
}

let value_to_json = function
  | Event.Int i -> Jsonw.Int i
  | Event.Float f when Float.is_finite f -> Jsonw.Raw (Printf.sprintf "%g" f)
  | Event.Float _ -> Jsonw.Null
  | Event.Str s -> Jsonw.Str s
  | Event.Bool b -> Jsonw.Bool b

(* Microseconds relative to [t0]: what the viewers expect in [ts]. *)
let event_to_json ~t0 (ev : Event.t) =
  let ts = int_of_float (Float.max 0. (ev.ts -. t0) *. 1e6) in
  Jsonw.to_string
    (Jsonw.Obj
       ([
          ("name", Jsonw.Str ev.name);
          ("cat", Jsonw.Str ev.cat);
          ("ph", Jsonw.Str (Event.phase_letter ev.phase));
          ("ts", Jsonw.Int ts);
          ("pid", Jsonw.Int 1);
          ("tid", Jsonw.Int ev.tid);
        ]
       @ (match ev.phase with
         | Event.Instant -> [ ("s", Jsonw.Str "t") ]
         | _ -> [])
       @
       match ev.args with
       | [] -> []
       | args ->
           [
             ( "args",
               Jsonw.Obj (List.map (fun (k, v) -> (k, value_to_json v)) args) );
           ]))

let create oc =
  output_string oc "[";
  { oc; t0 = Unix.gettimeofday (); count = 0; closed = false }

let write t ev =
  if not t.closed then begin
    if t.count > 0 then output_string t.oc ",";
    output_string t.oc "\n";
    output_string t.oc (event_to_json ~t0:t.t0 ev);
    t.count <- t.count + 1
  end

let sink t = Sink.make ~flush:(fun () -> flush t.oc) (write t)

let close t =
  if not t.closed then begin
    output_string t.oc "\n]\n";
    flush t.oc;
    t.closed <- true
  end

let event_count t = t.count

let to_string events =
  let t0 =
    match events with [] -> 0. | ev :: _ -> (ev : Event.t).ts
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n";
      Buffer.add_string b (event_to_json ~t0 ev))
    events;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let required_phases = [ "B"; "E"; "C"; "i" ]
let required_cats = [ "operator"; "phase"; "iteration"; "rule"; "egraph" ]

let validate text =
  let ( let* ) = Result.bind in
  let* json = Json.parse text in
  let* events =
    match json with
    | Json.Arr events -> Ok events
    | _ -> Error "top-level value is not an array"
  in
  let seen_phases = Hashtbl.create 8 and seen_cats = Hashtbl.create 8 in
  let depth = ref 0 and min_depth_ok = ref true in
  let* () =
    List.fold_left
      (fun acc ev ->
        let* () = acc in
        let str key =
          match Json.member key ev with
          | Some (Json.Str s) -> Ok s
          | _ -> Error (Printf.sprintf "event missing string %S" key)
        in
        let* _name = str "name" in
        let* cat = str "cat" in
        let* ph = str "ph" in
        let* () =
          match Json.member "ts" ev with
          | Some (Json.Num _) -> Ok ()
          | _ -> Error "event missing numeric \"ts\""
        in
        Hashtbl.replace seen_phases ph ();
        Hashtbl.replace seen_cats cat ();
        (match ph with
        | "B" -> incr depth
        | "E" ->
            decr depth;
            if !depth < 0 then min_depth_ok := false
        | _ -> ());
        Ok ())
      (Ok ()) events
  in
  let* () =
    if (not !min_depth_ok) || !depth <> 0 then
      Error "span begins and ends do not balance"
    else Ok ()
  in
  let missing required seen =
    List.filter (fun k -> not (Hashtbl.mem seen k)) required
  in
  match (missing required_phases seen_phases, missing required_cats seen_cats) with
  | [], [] -> Ok (List.length events)
  | ph, [] -> Error ("missing phases: " ^ String.concat ", " ph)
  | _, cats -> Error ("missing categories: " ^ String.concat ", " cats)
