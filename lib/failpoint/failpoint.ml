type trigger =
  | Nth of int
  | Every of int
  | Prob of float * int

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected name -> Some ("injected fault (failpoint " ^ name ^ ")")
    | _ -> None)

(* [rng] is a DLS key, not a shared [Random.State.t]: each domain draws
   from its own stream, seeded [seed lxor domain-id], so a [Prob]
   failpoint is deterministic per (seed, domain) and free of data races.
   The initial domain has id 0 — [seed lxor 0 = seed] — so a run on it
   draws exactly the sequence [seed] names. Arming mints a fresh key,
   which resets every domain's stream at once. *)
type state = {
  trigger : trigger;
  rng : Random.State.t Domain.DLS.key option;  (* [Prob] only *)
}

type t = {
  name : string;
  doc : string;
  hits : int Atomic.t;
  fired : int Atomic.t;
  armed : state option Atomic.t;
}

(* Failpoints declare themselves at library-initialization time, so a
   spec can name a point that has not been declared yet (the CLI parses
   [--failpoints] before any checker library initializes nothing — but
   test harnesses activate specs between runs). Pending triggers are
   handed over on declaration. The registry mutex covers declaration and
   (re)arming only; [hit] never takes it. *)
let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let pending : (string, trigger) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let state_of name = function
  | Prob (_, seed) ->
      Some
        (Domain.DLS.new_key (fun () ->
             let d = (Domain.self () :> int) in
             Random.State.make [| seed lxor d; Hashtbl.hash name |]))
  | Nth _ | Every _ -> None

let arm fp trigger =
  Atomic.set fp.hits 0;
  Atomic.set fp.fired 0;
  Atomic.set fp.armed (Some { trigger; rng = state_of fp.name trigger })

let declare ?(doc = "") name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some fp -> fp
  | None ->
      let fp =
        {
          name;
          doc;
          hits = Atomic.make 0;
          fired = Atomic.make 0;
          armed = Atomic.make None;
        }
      in
      Hashtbl.replace registry name fp;
      (match Hashtbl.find_opt pending name with
      | Some trigger ->
          Hashtbl.remove pending name;
          arm fp trigger
      | None -> ());
      fp

let fire fp =
  Atomic.incr fp.fired;
  raise (Injected fp.name)

(* The hot-path guard: one load and one branch when the failpoint is
   disarmed, which is the production state. *)
let hit fp =
  match Atomic.get fp.armed with
  | None -> ()
  | Some st -> (
      let hits = Atomic.fetch_and_add fp.hits 1 + 1 in
      match st.trigger with
      | Nth n -> if hits = n then fire fp
      | Every k -> if k > 0 && hits mod k = 0 then fire fp
      | Prob (p, _) -> (
          match st.rng with
          | Some key ->
              if Random.State.float (Domain.DLS.get key) 1.0 < p then fire fp
          | None -> ()))

let guard fp f = hit fp; f ()

(* --- activation ------------------------------------------------------- *)

let set name trigger =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some fp -> arm fp trigger
  | None -> Hashtbl.replace pending name trigger

let disarm fp =
  Atomic.set fp.armed None;
  Atomic.set fp.hits 0;
  Atomic.set fp.fired 0

let clear_one name =
  locked @@ fun () ->
  Hashtbl.remove pending name;
  match Hashtbl.find_opt registry name with
  | Some fp -> disarm fp
  | None -> ()

let clear () =
  locked @@ fun () ->
  Hashtbl.reset pending;
  Hashtbl.iter (fun _ fp -> disarm fp) registry

let with_armed name trigger f =
  set name trigger;
  Fun.protect ~finally:(fun () -> clear_one name) f

(* Spec grammar (documented in the interface):
     spec    ::= entry ("," entry)*
     entry   ::= name "=" trigger
     trigger ::= "nth:" N | "every:" K | "prob:" P [ "@" SEED ] | "off" *)
let parse_trigger s =
  let fail () = Error (Printf.sprintf "bad failpoint trigger %S" s) in
  match String.index_opt s ':' with
  | None -> if s = "off" then Ok None else fail ()
  | Some i -> (
      let kind = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "nth" -> (
          match int_of_string_opt arg with
          | Some n when n >= 1 -> Ok (Some (Nth n))
          | _ -> fail ())
      | "every" -> (
          match int_of_string_opt arg with
          | Some k when k >= 1 -> Ok (Some (Every k))
          | _ -> fail ())
      | "prob" -> (
          let p, seed =
            match String.index_opt arg '@' with
            | None -> (arg, "0")
            | Some j ->
                ( String.sub arg 0 j,
                  String.sub arg (j + 1) (String.length arg - j - 1) )
          in
          match (float_of_string_opt p, int_of_string_opt seed) with
          | Some p, Some seed when p >= 0. && p <= 1. ->
              Ok (Some (Prob (p, seed)))
          | _ -> fail ())
      | _ -> fail ())

let activate_spec spec =
  let entries =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go = function
    | [] -> Ok ()
    | entry :: rest -> (
        match String.index_opt entry '=' with
        | None -> Error (Printf.sprintf "bad failpoint entry %S (want name=trigger)" entry)
        | Some i -> (
            let name = String.sub entry 0 i in
            let rhs = String.sub entry (i + 1) (String.length entry - i - 1) in
            match parse_trigger rhs with
            | Error _ as e -> e
            | Ok None ->
                clear_one name;
                go rest
            | Ok (Some trigger) ->
                set name trigger;
                go rest))
  in
  go entries

let env_var = "ENTANGLE_FAILPOINTS"

let activate_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> Ok ()
  | Some spec -> activate_spec spec

(* Libraries holding failpoints initialize lazily; honoring the
   environment here means even embedders that never call
   [activate_from_env] get env-var activation, because [declare] drains
   [pending]. Parse errors are ignored at load time (there is nobody to
   report them to); the CLI re-parses and reports. *)
let () = ignore (activate_from_env ())

(* --- introspection ----------------------------------------------------- *)

let name fp = fp.name
let hits fp = Atomic.get fp.hits
let fired fp = Atomic.get fp.fired
let armed fp = Atomic.get fp.armed <> None

let catalog () =
  locked (fun () -> Hashtbl.fold (fun _ fp acc -> fp :: acc) registry [])
  |> List.sort (fun a b -> String.compare a.name b.name)

let names () = List.map (fun fp -> fp.name) (catalog ())
let doc fp = fp.doc
