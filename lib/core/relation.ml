open Entangle_ir

type t = Expr.t list Tensor.Map.t

let empty = Tensor.Map.empty

let insert_sorted expr exprs =
  if List.exists (Expr.equal expr) exprs then exprs
  else
    List.sort
      (fun a b -> Int.compare (Expr.size a) (Expr.size b))
      (expr :: exprs)

let add t tensor expr =
  Tensor.Map.update tensor
    (function
      | None -> Some [ expr ]
      | Some exprs -> Some (insert_sorted expr exprs))
    t

let add_all t tensor exprs = List.fold_left (fun t e -> add t tensor e) t exprs
let singleton tensor expr = add empty tensor expr
let of_list l = List.fold_left (fun t (tensor, e) -> add t tensor e) empty l
let find t tensor = Option.value (Tensor.Map.find_opt tensor t) ~default:[]
let mem t tensor = Tensor.Map.mem tensor t

let union a b =
  Tensor.Map.union
    (fun _ xs ys -> Some (List.fold_left (fun acc e -> insert_sorted e acc) xs ys))
    a b

let bindings t = Tensor.Map.bindings t
let cardinal t = Tensor.Map.cardinal t

let tensors_in_range t =
  Tensor.Map.fold
    (fun _ exprs acc ->
      List.fold_left (Expr.fold_leaves (Fun.flip Tensor.Set.add)) acc exprs)
    t Tensor.Set.empty

let restrict t pred = Tensor.Map.filter (fun tensor _ -> pred tensor) t
let complete_for t tensors = List.for_all (mem t) tensors

let is_clean t =
  Tensor.Map.for_all (fun _ exprs -> List.for_all Expr.is_clean exprs) t

let pp ppf t =
  let pp_entry ppf (tensor, exprs) =
    Fmt.pf ppf "@[<hov 2>%a ->@ %a@]" Tensor.pp_name tensor
      (Fmt.list ~sep:(Fmt.any " | ") Expr.pp)
      exprs
  in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_entry) (bindings t)
