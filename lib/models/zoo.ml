let fig3_instances () =
  [
    Gpt.build ~layers:1 ~degree:2 ();
    Qwen2.build ~layers:1 ~degree:2 ();
    Llama.build ~layers:1 ~degree:2 ();
    Moe.build ~degree:2 ~layers:1 ();
    Moe.build_backward ~degree:2 ();
    Regression.build ();
  ]

let by_name ?degree ?layers name =
  match String.lowercase_ascii name with
  | "gpt" -> Some (Gpt.build ?layers ?degree ())
  | "linear-bwd" -> Some (Train.linear_backward ?degree ())
  | "dp" | "data-parallel" -> Some (Train.data_parallel ?replicas:degree ())
  | "pipeline" | "pp" ->
      Some (Train.pipeline ?microbatches:degree ?layers ())
  | "llama" | "llama-3" | "llama3" -> Some (Llama.build ?layers ?degree ())
  | "qwen2" | "qwen" -> Some (Qwen2.build ?layers ?degree ())
  | "bytedance" | "moe" -> Some (Moe.build ?degree ?layers ())
  | "bytedance-bwd" | "moe-bwd" -> Some (Moe.build_backward ?degree ())
  | "regression" -> Some (Regression.build ?microbatches:degree ())
  | _ -> None

let names =
  [
    "gpt"; "llama"; "qwen2"; "bytedance"; "bytedance-bwd"; "regression";
    "linear-bwd"; "dp"; "pipeline";
  ]
