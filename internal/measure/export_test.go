package measure

// RunTracerouteVia and ContinueTracerouteVia expose runTraceroute and
// continueTraceroute to the external test package (which, unlike this one,
// can import simtest): tests observe the specs the traceroute issues, or
// script the replies.
var (
	RunTracerouteVia      = runTraceroute
	ContinueTracerouteVia = continueTraceroute
)
