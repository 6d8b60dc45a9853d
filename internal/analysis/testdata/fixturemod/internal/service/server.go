package service

// crashMaybe hits one declared fault (clean).
func crashMaybe() bool { return fire(FaultCrashEarly) }

var _ = crashMaybe
var _ = FaultNeverFired
