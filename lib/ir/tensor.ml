type id = int

type t = { id : id; name : string; shape : Shape.t; dtype : Dtype.t }

(* Atomic so concurrent checks (the daemon's handler threads) can
   allocate tensors without racing on ids (ids need only be unique, not
   dense). *)
let counter = Atomic.make 0

let create ?(dtype = Dtype.F32) ~name shape =
  { id = Atomic.fetch_and_add counter 1 + 1; name; shape; dtype }

let id t = t.id
let name t = t.name
let shape t = t.shape
let dtype t = t.dtype
let equal a b = Int.equal a.id b.id
let compare a b = Int.compare a.id b.id
let hash t = Hashtbl.hash t.id
let pp ppf t = Fmt.pf ppf "%s:%a" t.name Shape.pp t.shape
let pp_name ppf t = Fmt.string ppf t.name

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
