open Entangle_ir

type sym = Op of Op.t | Leaf of Tensor.t

type t = { sym : sym; children : Id.t list }

let op o children = { sym = Op o; children }
let leaf t = { sym = Leaf t; children = [] }
let sym n = n.sym
let children n = n.children
let map_children f n = { n with children = List.map f n.children }

let compare_sym a b =
  match (a, b) with
  | Leaf x, Leaf y -> Tensor.compare x y
  | Leaf _, Op _ -> -1
  | Op _, Leaf _ -> 1
  | Op x, Op y -> Op.compare x y

let compare a b =
  match compare_sym a.sym b.sym with
  | 0 -> List.compare Id.compare a.children b.children
  | c -> c

let equal a b = compare a b = 0

let hash_sym = function
  | Leaf t -> Tensor.hash t
  | Op o -> Op.hash o

let hash n =
  List.fold_left
    (fun acc c -> (acc * 31) + Id.hash c)
    (hash_sym n.sym) n.children

let pp ppf n =
  match n.sym with
  | Leaf t -> Tensor.pp_name ppf t
  | Op o ->
      Fmt.pf ppf "(%a %a)" Op.pp o (Fmt.list ~sep:(Fmt.any " ") Id.pp) n.children

module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
  let compare = compare
end

module Tbl = Hashtbl.Make (Key)
module Map = Map.Make (Key)
