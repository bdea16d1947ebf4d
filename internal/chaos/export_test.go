package chaos

// Trips returns the invariant an injection is designed to violate ("" for
// unknown names); fixtures and self-tests assert against it.
func Trips(injection string) string { return injections[injection].trips }
