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

let replay cluster ~client ~proxy ~events ~on_response () =
  let sim = Nk_node.Cluster.sim cluster in
  List.iter
    (fun (offset, req) ->
      Nk_sim.Sim.schedule sim ~delay:offset (fun () ->
          let started = Nk_sim.Sim.now sim in
          Nk_node.Cluster.fetch cluster ~client ~proxy req (fun resp ->
              on_response req resp (Nk_sim.Sim.now sim -. started))))
    events
