type t = {
  on : bool;
  trace : Trace.t;
  metrics : Metrics.t;
  prof : Prof.t;
  geometry : Metrics.geometry;
}

let create ~trace ~metrics ~prof ~geometry =
  { on = Trace.enabled trace || Metrics.enabled metrics; trace; metrics; prof; geometry }

let null =
  create ~trace:Trace.null ~metrics:Metrics.null ~prof:Prof.null
    ~geometry:Metrics.default_geometry

let on t = t.on

let emit t ev =
  if t.on then begin
    Trace.emit t.trace ev;
    Metrics.apply t.metrics t.geometry ev
  end

let metrics t = t.metrics
let prof t = t.prof
