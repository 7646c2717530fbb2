let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let compute ~target ~queue_delay ~shed_rate ~queue_frac =
  let target = Float.max 1e-9 target in
  let delay = Float.max 0.0 queue_delay in
  (* delay/(delay+target): 0 when idle, 0.5 at the admission target,
     asymptotically 1 — smooth and monotone, no cliff at the target. *)
  let delay_c = delay /. (delay +. target) in
  let shed_c = clamp01 shed_rate in
  let queue_c = clamp01 queue_frac in
  clamp01 (1.0 -. ((1.0 -. delay_c) *. (1.0 -. shed_c) *. (1.0 -. queue_c)))
