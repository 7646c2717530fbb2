(* Corroborated reports that evict a node. *)
let eviction_threshold = 3

type t = {
  sample_fraction : float;
  members : (string, int) Hashtbl.t; (* node -> report count *)
}

let create ~sample_fraction =
  if sample_fraction < 0.0 || sample_fraction > 1.0 then
    invalid_arg "Verifier.create: sample_fraction out of [0,1]";
  { sample_fraction; members = Hashtbl.create 16 }

let should_sample t ~rng = Nk_util.Prng.float rng 1.0 < t.sample_fraction

let register_node t node = if not (Hashtbl.mem t.members node) then Hashtbl.add t.members node 0

let is_member t node = Hashtbl.mem t.members node

let check t ~node ~original ~reexecuted =
  if String.equal original reexecuted then `Match
  else begin
    (match Hashtbl.find_opt t.members node with
     | Some count ->
       let count = count + 1 in
       Hashtbl.replace t.members node count;
       if count >= eviction_threshold then Hashtbl.remove t.members node
     | None -> ());
    `Mismatch_reported
  end
