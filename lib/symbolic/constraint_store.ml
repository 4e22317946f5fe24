type constr = Ge of Symdim.t | Eq of Symdim.t

type t = { constrs : constr list }

let empty = { constrs = [] }
let is_empty t = t.constrs = []
let add t c = { constrs = c :: t.constrs }
let add_ge t e = add t (Ge e)
let add_gt t e = add t (Ge (Symdim.sub e Symdim.one))
let add_eq t a b = add t (Eq (Symdim.sub a b))
let add_positive t name = add_gt t (Symdim.sym name)
let of_list constrs = { constrs }
let constraints t = t.constrs

let inequalities t =
  List.concat_map
    (function Ge e -> [ e ] | Eq e -> [ e; Symdim.neg e ])
    t.constrs

let pp ppf t =
  let pp_constr ppf = function
    | Ge e -> Fmt.pf ppf "%a >= 0" Symdim.pp e
    | Eq e -> Fmt.pf ppf "%a = 0" Symdim.pp e
  in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_constr) t.constrs
