type t = { id : int; op : Op.t; inputs : Tensor.t list; output : Tensor.t }

let id t = t.id
let op t = t.op
let inputs t = t.inputs
let output t = t.output

let distinct_inputs t =
  match t.inputs with
  | ([] | [ _ ]) as inputs -> inputs
  | [ a; b ] as inputs -> if Tensor.equal a b then [ a ] else inputs
  | inputs ->
      let seen = Hashtbl.create 8 in
      List.filter
        (fun x ->
          (not (Hashtbl.mem seen (Tensor.id x)))
          && (Hashtbl.replace seen (Tensor.id x) ();
              true))
        inputs

let pp ppf t =
  Fmt.pf ppf "%a = %a(%a)" Tensor.pp_name t.output Op.pp t.op
    (Fmt.list ~sep:(Fmt.any ", ") Tensor.pp_name)
    t.inputs
