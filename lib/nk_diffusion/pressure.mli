(** The scalar pressure signal driving proactive diffusion (C3PO).

    Na Kika's monitors are reactive: they throttle and quarantine after
    congestion appears, and PR 5's admission control sheds only once the
    queueing delay has already blown through its target. C3PO argues the
    right time to move work is {e before} that point — when a cheap
    scalar "computation congestion" signal starts climbing. This module
    derives that scalar from the three gauges a node already measures
    for its health reports: the CPU queueing delay a newly admitted
    request would see, the admission shed rate, and the admission queue
    occupancy.

    The signal is a product-of-complements in [0, 1]:

    {v
      pressure = 1 - (1 - delay/(delay+target)) * (1 - shed) * (1 - occupancy)
    v}

    so it is 0 only when every component is idle, saturates toward 1 as
    any component saturates, and — crucially for the policy layer — is
    {e monotone} in each input: more delay, more shedding, or a fuller
    queue can never read as less pressure (the qcheck property in
    [test_diffusion.ml]). The delay term uses the admission delay target
    as its half-way scale, so pressure crosses ~0.5 exactly where
    admission would start shedding: a low-water threshold below 0.5 is
    what makes diffusion {e proactive}. *)

val compute :
  target:float -> queue_delay:float -> shed_rate:float -> queue_frac:float -> float
(** [compute ~target ~queue_delay ~shed_rate ~queue_frac] where [target]
    is the admission delay target (seconds, > 0), [queue_delay] the
    current CPU backlog (seconds), [shed_rate] the fraction of recent
    arrivals shed, and [queue_frac] the admitted-queue occupancy
    fraction. All inputs are clamped to their sane ranges; the result is
    in [0, 1]. *)
