type value = Int of int | Float of float | Str of string | Bool of bool
type phase = Begin | End | Counter | Instant

type t = {
  name : string;
  cat : string;
  phase : phase;
  ts : float;
  tid : int;
  args : (string * value) list;
}

(* Domain ids start at 0 for the initial domain; Chrome viewers (and
   the golden traces) expect track 1, so shift by one. Other domains
   get 2, 3, ... — distinct tracks per domain. *)
let current_tid () = (Domain.self () :> int) + 1

let phase_letter = function
  | Begin -> "B"
  | End -> "E"
  | Counter -> "C"
  | Instant -> "i"

let arg_int t key =
  match List.assoc_opt key t.args with Some (Int i) -> Some i | _ -> None

let arg_float t key =
  match List.assoc_opt key t.args with Some (Float f) -> Some f | _ -> None

let arg_str t key =
  match List.assoc_opt key t.args with Some (Str s) -> Some s | _ -> None

let arg_bool t key =
  match List.assoc_opt key t.args with Some (Bool b) -> Some b | _ -> None

let pp_value ppf = function
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.pf ppf "%g" f
  | Str s -> Fmt.string ppf s
  | Bool b -> Fmt.bool ppf b

let pp ppf t =
  Fmt.pf ppf "%s %s %s" (phase_letter t.phase) t.cat t.name;
  List.iter (fun (k, v) -> Fmt.pf ppf " %s=%a" k pp_value v) t.args
