package main

import (
	"fmt"
	"math/rand"

	"gremlin/internal/eventlog"
	"gremlin/internal/microservice"
	"gremlin/internal/proxy"
	"gremlin/internal/rules"
	"gremlin/internal/topology"
)

// storeStack is the remote event log every deployment ships to:
// agents → BufferedSink → Client → Server → ShardedStore.
type storeStack struct {
	store  *eventlog.ShardedStore
	server *eventlog.Server
	client *eventlog.Client
	buffer *eventlog.BufferedSink
	// sink is what the agents log through: the buffer, or its traced
	// wrapper.
	sink eventlog.Sink
}

// tracing configures the traced run's wrappers; nil means untraced.
type tracing struct {
	t *tracer
	// parent links agent records to the span that caused them.
	parent linker
	tally  *sinkTally
}

func newStoreStack(shards int, tr *tracing) (*storeStack, error) {
	store, err := eventlog.NewShardedStore(eventlog.StoreOptions{Shards: shards})
	if err != nil {
		return nil, err
	}
	server, err := eventlog.NewServer("127.0.0.1:0", store)
	if err != nil {
		store.Close()
		return nil, err
	}
	st := &storeStack{store: store, server: server, client: eventlog.NewClient(server.URL(), nil)}
	var inner eventlog.Sink = st.client
	if tr != nil {
		if inner, err = traceSink(st.client, tr.t, "eventlog.client_log", func(string) uint64 { return 0 }, nil); err != nil {
			st.Close()
			return nil, err
		}
	}
	st.buffer = eventlog.NewBufferedSink(inner, 0)
	st.sink = st.buffer
	if tr != nil {
		if st.sink, err = traceSink(st.buffer, tr.t, "eventlog.log", tr.parent, tr.tally); err != nil {
			st.Close()
			return nil, err
		}
	}
	return st, nil
}

// settle flushes buffered records into the store.
func (st *storeStack) settle() error { return st.buffer.Flush() }

// count returns the number of stored records matching pattern.
func (st *storeStack) count(pattern string) (int, error) {
	return st.store.Count(eventlog.Query{IDPattern: pattern})
}

func (st *storeStack) Close() error {
	err := st.buffer.Close()
	st.server.Close()
	st.store.Close()
	return err
}

// chainLen is the number of services in the hop workloads' chain
// svc-0 → svc-1 → svc-2 → svc-3; with the edge agent it is proxied
// through four agents.
const (
	chainLen  = 4
	chainHops = 4
)

func chainName(i int) string { return fmt.Sprintf("svc-%d", i) }

func chainSpec(seed int64, sink eventlog.Sink) topology.Spec {
	spec := topology.Spec{Entry: chainName(0), Sink: sink, RNG: rand.New(rand.NewSource(seed))}
	for i := 0; i < chainLen; i++ {
		s := topology.ServiceSpec{Name: chainName(i)}
		if i+1 < chainLen {
			s.DependsOn = []string{chainName(i + 1)}
		}
		spec.Services = append(spec.Services, s)
	}
	return spec
}

// chainBody is the reply the chain gives for path when nothing is faulted.
func chainBody(path string) string {
	body := "ok " + path
	for i := chainLen - 2; i >= 0; i-- {
		body = fmt.Sprintf("%s(%s:[%s])", chainName(i), chainName(i+1), body)
	}
	return body
}

// quietRules are Figure 8's installed rules that never fire: n regex rules
// per agent on the agent's own route, half on requests and half on
// replies, none matching any generated request ID.
func quietRules(src, dst string, n int) []rules.Rule {
	out := make([]rules.Rule, 0, n)
	for i := 0; i < n; i++ {
		on := rules.OnRequest
		if i%2 == 1 {
			on = rules.OnResponse
		}
		out = append(out, rules.Rule{
			ID:          fmt.Sprintf("quiet-%s-%d", src, i),
			Src:         src,
			Dst:         dst,
			On:          on,
			Action:      rules.ActionDelay,
			Pattern:     fmt.Sprintf("re:^never-matching-id-%d-[0-9a-f]+$", i),
			DelayMillis: 1,
		})
	}
	return out
}

// chainAgents returns the chain's agents, edge first: agent i proxies to
// chainName(i).
func chainAgents(app *topology.App) []*proxy.Agent {
	out := []*proxy.Agent{app.Agent(topology.EdgeService)}
	for i := 0; i+1 < chainLen; i++ {
		out = append(out, app.Agent(chainName(i)))
	}
	return out
}

// directChain is the same-run reference: the chain's services calling
// each other directly, with no agents and no event log.
type directChain struct {
	services []*microservice.Service
}

func newDirectChain() (*directChain, error) {
	dc := &directChain{}
	var next *microservice.Service
	for i := chainLen - 1; i >= 0; i-- {
		cfg := microservice.Config{Name: chainName(i), ListenAddr: "127.0.0.1:0"}
		if next != nil {
			cfg.Dependencies = []microservice.Dependency{{Name: next.Name(), BaseURL: next.URL()}}
			cfg.Handler = microservice.FanOutHandler(microservice.FailFast)
		}
		svc, err := microservice.New(cfg)
		if err != nil {
			dc.Close()
			return nil, err
		}
		svc.Start()
		dc.services = append(dc.services, svc)
		next = svc
	}
	return dc, nil
}

func (dc *directChain) url() string { return dc.services[len(dc.services)-1].URL() }

func (dc *directChain) Close() error {
	for _, s := range dc.services {
		s.Close()
	}
	return nil
}
