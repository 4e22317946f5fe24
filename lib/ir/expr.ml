
type t = Leaf of Tensor.t | App of Op.t * t list

let leaf t = Leaf t
let app op args = App (op, args)

let fold_leaves f acc expr =
  let rec go acc = function
    | Leaf t -> f acc t
    | App (_, args) -> List.fold_left go acc args
  in
  go acc expr

let leaves expr =
  let seen = Hashtbl.create 16 in
  List.rev
    (fold_leaves
       (fun acc t ->
         if Hashtbl.mem seen (Tensor.id t) then acc
         else begin
           Hashtbl.replace seen (Tensor.id t) ();
           t :: acc
         end)
       [] expr)

let rec size = function
  | Leaf _ -> 0
  | App (_, args) -> 1 + List.fold_left (fun acc e -> acc + size e) 0 args

let rec depth = function
  | Leaf _ -> 0
  | App (_, args) -> 1 + List.fold_left (fun acc e -> max acc (depth e)) 0 args

let rec is_clean = function
  | Leaf _ -> true
  | App (op, args) -> Op.is_clean op && List.for_all is_clean args

let rec mem_leaf t = function
  | Leaf u -> Tensor.equal t u
  | App (_, args) -> List.exists (mem_leaf t) args

let rec subst f = function
  | Leaf t as e -> ( match f t with Some e' -> e' | None -> e)
  | App (op, args) -> App (op, List.map (subst f) args)

let rec infer_shape store = function
  | Leaf t -> Ok (Tensor.shape t)
  | App (op, args) ->
      let rec shapes acc = function
        | [] -> Ok (List.rev acc)
        | a :: rest -> (
            match infer_shape store a with
            | Ok s -> shapes (s :: acc) rest
            | Error _ as e -> e)
      in
      Result.bind (shapes [] args) (Op.infer_shape store op)

let rec compare a b =
  match (a, b) with
  | Leaf x, Leaf y -> Tensor.compare x y
  | Leaf _, App _ -> -1
  | App _, Leaf _ -> 1
  | App (opa, xs), App (opb, ys) -> (
      match Op.compare opa opb with
      | 0 -> List.compare compare xs ys
      | c -> c)

let equal a b = compare a b = 0

let rec pp ppf = function
  | Leaf t -> Tensor.pp_name ppf t
  | App (op, args) ->
      Fmt.pf ppf "(%a %a)" Op.pp op (Fmt.list ~sep:(Fmt.any " ") pp) args

let to_string e = Fmt.str "%a" pp e
