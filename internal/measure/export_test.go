package measure

// RunTracerouteVia exposes runTraceroute to the external test package
// (which, unlike this one, can import simtest): tests observe the specs a
// traceroute issues, or script the replies.
var RunTracerouteVia = runTraceroute
