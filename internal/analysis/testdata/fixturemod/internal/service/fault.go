// Package service seeds the faultpoint pass: one declared fault that a
// script exercises, and one that nothing exercises.
package service

// Fault is a declared fault-injection point.
type Fault uint8

const (
	_ Fault = iota
	// FaultCrashEarly is exercised by the fixture script.
	FaultCrashEarly
	// FaultNeverFired is exercised by nothing.
	FaultNeverFired
)

var faultNames = [...]string{
	FaultCrashEarly: "crash-early",
	FaultNeverFired: "never-fired",
}

func (f Fault) String() string { return faultNames[f] }

// fire reports whether f fires; the fixture arms nothing.
func fire(f Fault) bool { return f == 0 }
