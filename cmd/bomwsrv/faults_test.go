package main

import (
	"reflect"
	"testing"

	"bomw/internal/cluster"
	"bomw/internal/fault"
)

// TestParseChaosSpecDeterministicPlans closes the loop the -faults flag
// rides: a seeded incident spec, parsed over the node names the fleet
// will actually carry, yields identical plans on replay, and a fleet too
// small for the incident is refused.
func TestParseChaosSpecDeterministicPlans(t *testing.T) {
	names := cluster.FleetNames(16)
	if names[0] != "node0" || names[15] != "node15" {
		t.Fatalf("FleetNames = %v", names[:2])
	}
	a, err := fault.Parse("crash:2,slow:2", 42, names)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fault.Parse("crash:2,slow:2", 42, names)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec and seed generated different plans")
	}
	if _, err := fault.Parse("crash:2,slow:2", 42, cluster.FleetNames(3)); err == nil {
		t.Fatal("4 faulty nodes on a 3-node fleet accepted")
	}
}
