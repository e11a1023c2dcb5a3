package pramemu

import (
	"fmt"
	"testing"

	"pramemu/internal/engine"
	"pramemu/internal/leveled"
	"pramemu/internal/packet"
	"pramemu/internal/shuffle"
	"pramemu/internal/simnet"
	"pramemu/internal/star"
	"pramemu/internal/workload"
)

// maxPerDst is the module-load oracle: the largest number of packets
// addressed to one destination, counted straight from the workload.
func maxPerDst(pkts []*packet.Packet) int {
	count := make(map[int]int)
	best := 0
	for _, p := range pkts {
		count[p.Dst]++
		best = max(best, count[p.Dst])
	}
	return best
}

// TestModuleLoadMatchesOracle checks Stats.MaxModuleLoad, which the
// engine sums node by node across its shards at the end of a run,
// against maxPerDst: on both generic routers, for a permutation and a
// many-one khot workload, at 1, 2 and 4 workers and on the event
// engine.
func TestModuleLoadMatchesOracle(t *testing.T) {
	routers := []struct {
		name  string
		nodes int
		route func(pkts []*packet.Packet, workers int, ev *engine.EventOptions) engine.Stats
	}{
		{"simnet-star6", 720, func(pkts []*packet.Packet, workers int, ev *engine.EventOptions) engine.Stats {
			return mustSimRoute(star.New(6), pkts, simnet.Options{Seed: 5, Workers: workers, Event: ev})
		}},
		{"leveled-shuffle4", 256, func(pkts []*packet.Packet, workers int, ev *engine.EventOptions) engine.Stats {
			return leveled.Route(shuffle.NewNWay(4).AsLeveled(), pkts, leveled.Options{Seed: 5, Workers: workers, Event: ev})
		}},
	}
	workloads := []struct {
		name string
		gen  func(nodes int) []*packet.Packet
	}{
		{"perm", func(nodes int) []*packet.Packet { return workload.Permutation(nodes, packet.Transit, 1991) }},
		{"khot", func(nodes int) []*packet.Packet {
			return workload.KHotInto(nil, nodes, 4, 0.5, packet.ReadRequest, 1991)
		}},
	}
	engines := []struct {
		workers int
		event   *engine.EventOptions
	}{{1, nil}, {2, nil}, {4, nil}, {1, eventFaulty()}}
	for _, r := range routers {
		for _, w := range workloads {
			for _, e := range engines {
				name := fmt.Sprintf("%s/%s/workers=%d/event=%t", r.name, w.name, e.workers, e.event != nil)
				pkts := w.gen(r.nodes)
				want := maxPerDst(pkts)
				st := r.route(pkts, e.workers, e.event)
				if st.DeliveredRequests != len(pkts) {
					t.Fatalf("%s: delivered %d of %d requests", name, st.DeliveredRequests, len(pkts))
				}
				if st.MaxModuleLoad != want {
					t.Fatalf("%s: MaxModuleLoad %d, oracle %d", name, st.MaxModuleLoad, want)
				}
			}
		}
	}
}
