let closed_loop cluster ~client ?proxy ?(think = 0.0) ~until ~make_request ~on_response () =
  let sim = Nk_node.Cluster.sim cluster in
  let rec iteration i =
    if Nk_sim.Sim.now sim < until then begin
      let req = make_request i in
      let started = Nk_sim.Sim.now sim in
      Nk_node.Cluster.fetch cluster ~client ?proxy req (fun resp ->
          let elapsed = Nk_sim.Sim.now sim -. started in
          on_response i req resp elapsed;
          if think > 0.0 then Nk_sim.Sim.schedule sim ~delay:think (fun () -> iteration (i + 1))
          else iteration (i + 1))
    end
  in
  iteration 0

type answer = {
  index : int;
  url : string;
  sent : float;
  received : float;
  response : Nk_http.Message.response;
}

type recorder = {
  cluster : Nk_node.Cluster.t;
  mutable issued : int;
  mutable answers : answer list;  (* newest first *)
}

let recorder cluster = { cluster; issued = 0; answers = [] }

let send r ~client ~proxy ~timeout req =
  let sim = Nk_node.Cluster.sim r.cluster in
  let index = r.issued in
  r.issued <- index + 1;
  let url = Nk_http.Url.to_string req.Nk_http.Message.url and sent = Nk_sim.Sim.now sim in
  Nk_node.Cluster.fetch r.cluster ~client ?proxy ~timeout req (fun response ->
      r.answers <- { index; url; sent; received = Nk_sim.Sim.now sim; response } :: r.answers)

let issued r = r.issued

let finish r ~until =
  Nk_sim.Sim.run ~until (Nk_node.Cluster.sim r.cluster);
  List.rev r.answers
