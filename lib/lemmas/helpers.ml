open Entangle_symbolic
open Entangle_ir
open Entangle_egraph

let v = Pattern.v
let p = Pattern.p
let fam = Pattern.fam
let var_names n = List.init n (Printf.sprintf "x%d")
let vars n = List.map v (var_names n)

let vars_y n = List.init n (fun i -> v (Printf.sprintf "y%d" i))

let vars2 n =
  ( List.init n (fun i -> v (Printf.sprintf "x%d" i)),
    List.init n (fun i -> v (Printf.sprintf "y%d" i)) )

let concat_dim = function
  | Op.Concat { dim } | Op.Hlo_concatenate { dim } -> Some dim
  | _ -> None

let slice_attrs = function
  | Op.Slice { dim; start; stop } | Op.Hlo_slice { dim; start; stop } ->
      Some (dim, start, stop)
  | _ -> None

let scale_factor = function Op.Scale r -> Some r | _ -> None

let transpose_dims = function
  | Op.Transpose { dim0; dim1 } -> Some (dim0, dim1)
  | _ -> None

let reduce_scatter_attrs = function
  | Op.Reduce_scatter { dim; index; count } -> Some (dim, index, count)
  | _ -> None

let all_gather_dim = function Op.All_gather { dim } -> Some dim | _ -> None

let shape_of_var g subst x =
  match Subst.var_opt subst x with
  | Some cls -> Egraph.shape_of g cls
  | None -> None

let dim_of_var g subst x axis =
  match shape_of_var g subst x with
  | Some shape ->
      let rank = Shape.rank shape in
      let a = if axis < 0 then rank + axis else axis in
      if a >= 0 && a < rank then Some (Shape.dim shape a) else None
  | None -> None

let rank_of_var g subst x =
  Option.map Shape.rank (shape_of_var g subst x)

let equal_groups ~groups l =
  let per = List.length l / groups in
  List.init groups (fun i -> List.filteri (fun j _ -> j / per = i) l)

let sub_term_exists g subst op = function
  | [ _ ] -> true
  | names ->
      Egraph.has_arity g (Op.name op) (List.length names)
      && Option.is_some
           (Egraph.lookup g (Enode.op op (List.map (Subst.var subst) names)))

let deq g a b = Decide.prove_eq (Egraph.constraints g) a b
let dle g a b = Decide.prove_le (Egraph.constraints g) a b
let shapes_equal g a b = Shape.equal (Egraph.constraints g) a b

let ( let* ) = Option.bind
let guard b = if b then Some () else None

let all_some opts =
  List.fold_right
    (fun o acc ->
      match (o, acc) with
      | Some x, Some xs -> Some (x :: xs)
      | _ -> None)
    opts (Some [])

let for_arities lo hi gen = List.init (hi - lo + 1) (fun i -> gen (lo + i))
let collective_arities = (2, 8)
