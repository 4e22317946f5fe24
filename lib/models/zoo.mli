(** The catalog of verification instances used by the benchmarks, the
    CLI and the examples — the workload of the paper's Table 2. *)

val fig3_instances : unit -> Instance.t list
(** The end-to-end verification workload of Figure 3: GPT (TP+SP),
    Qwen2 (TP), Llama-3 (TP), ByteDance forward and backward, all at
    parallelism 2 with one layer, plus the sub-second HuggingFace
    regression model mentioned in section 6.3. *)

val by_name : ?degree:int -> ?layers:int -> string -> Instance.t option
(** Lookup by short name, case-insensitive: one of {!names}, or the
    aliases "llama-3", "llama3", "qwen", "moe", "moe-bwd",
    "data-parallel" and "pp". [degree] is the parallelism degree (the
    microbatches of "regression" and "pipeline", the replicas of "dp");
    [layers] the layer count of "gpt", "llama", "qwen2", "bytedance"
    and "pipeline", ignored by the others. Each defaults to the model's
    own default. *)

val names : string list
