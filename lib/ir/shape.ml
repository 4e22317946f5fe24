open Entangle_symbolic

type t = Symdim.t list

let scalar = []
let of_ints = List.map Symdim.of_int
let rank = List.length

let normalize_axis ~rank i =
  let j = if i < 0 then rank + i else i in
  if j < 0 || j >= rank then
    invalid_arg (Printf.sprintf "Shape: axis %d out of range for rank %d" i rank)
  else j

let dim s i = List.nth s (normalize_axis ~rank:(rank s) i)

let set_dim s i d =
  let i = normalize_axis ~rank:(rank s) i in
  List.mapi (fun j x -> if j = i then d else x) s

let numel s =
  List.fold_left
    (fun acc d ->
      match acc with None -> None | Some a -> Symdim.mul a d)
    (Some Symdim.one) s

let equal store a b =
  rank a = rank b && List.for_all2 (Decide.prove_eq store) a b

let equal_syntactic a b = rank a = rank b && List.for_all2 Symdim.equal a b

let broadcast store a b =
  let ra = rank a and rb = rank b in
  let n = max ra rb in
  let pad s r = List.init (n - r) (fun _ -> Symdim.one) @ s in
  let a = pad a ra and b = pad b rb in
  let one = Symdim.one in
  let combine da db =
    if Symdim.equal da one then Some db
    else if Symdim.equal db one then Some da
    else if Decide.prove_eq store da db then Some da
    else None
  in
  let rec go = function
    | [], [] -> Some []
    | da :: ta, db :: tb -> (
        match combine da db with
        | None -> None
        | Some d -> (
            match go (ta, tb) with None -> None | Some rest -> Some (d :: rest)))
    | _ -> None
  in
  go (a, b)

let concrete env s = List.map (Symdim.eval env) s

(* [[n, 4]]: byte for byte what the [Format] printer it replaced wrote
   (kept in test/test_ir.ml). *)
let to_string s = "[" ^ String.concat ", " (List.map Symdim.to_string s) ^ "]"
let pp ppf s = Fmt.string ppf (to_string s)
