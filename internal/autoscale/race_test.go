//go:build race

package autoscale

func init() {
	differentialTraces.main, differentialTraces.other = 1, 1
	differentialTraces.events, differentialTraces.otherEvents = 2000, 2000
}
