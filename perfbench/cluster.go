package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"capnn/internal/cluster"
	"capnn/internal/core"
	"capnn/internal/exp"
	"capnn/internal/serve"
)

const numShards = 3

// serveConfig is capnn-serve's flag defaults, spelled out so the
// benchmark serves exactly what the binary serves.
func serveConfig() serve.Config {
	return serve.Config{
		Variant:             core.VariantM,
		MaxBatch:            8,
		MaxWait:             2 * time.Millisecond,
		Workers:             0, // GOMAXPROCS
		CacheCap:            256,
		MaxQueue:            1024,
		RequestTimeout:      30 * time.Second,
		EDFSlack:            500 * time.Microsecond,
		BulkQueueFraction:   0.5,
		CompiledBudgetBytes: 0, // 512 MiB
		GuardSampleEvery:    8,
		GuardWindow:         256,
		GuardSlack:          0.05,
	}
}

// gatewayConfig is capnn-gateway's flag defaults.
func gatewayConfig() cluster.Config {
	return cluster.Config{
		VirtualNodes:   cluster.DefaultVirtualNodes,
		Replication:    2,
		ProbeEvery:     2 * time.Second,
		ProbeTimeout:   time.Second,
		FailThreshold:  3,
		Cooldown:       5 * time.Second,
		RequestTimeout: 30 * time.Second,
		HandoffTimeout: 10 * time.Second,
	}
}

// shard is one in-process serve node wired like capnn-serve: its own
// System, a TCP listener, and a cluster fence as owner check.
type shard struct {
	fx    *exp.Fixture
	srv   *serve.Server
	fence *cluster.Fence
	addr  string
}

// testCluster is three shards behind one gateway. Requests enter through
// Gateway.Route, so the client→gateway socket leg is not exercised; the
// gateway→shard hop is the real pooled gob/TCP transport.
type testCluster struct {
	shards  []*shard
	gw      *cluster.Gateway
	stopped sync.Once
}

// startCluster loads one fixture per shard, starts the shards and the
// gateway, and installs the gateway's ring view in every shard's fence
// (what a membership broadcast does), so the fence judges each request.
func startCluster() (*testCluster, error) {
	c := &testCluster{}
	addrs := make([]string, 0, numShards)
	for i := 0; i < numShards; i++ {
		fx, err := exp.Load(exp.CIFAR10Config(), nil)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("shard %d fixture: %w", i, err)
		}
		sh := &shard{fx: fx, srv: serve.NewServerWith(fx.Sys, serveConfig()), fence: cluster.NewFence()}
		sh.srv.SetOwnerCheck(sh.fence.Check)
		sh.srv.SetRingUpdate(sh.fence.Apply)
		c.shards = append(c.shards, sh)
		if sh.addr, err = sh.srv.Listen("127.0.0.1:0"); err != nil {
			c.stop()
			return nil, fmt.Errorf("shard %d listen: %w", i, err)
		}
		addrs = append(addrs, sh.addr)
	}
	gw, err := cluster.NewGateway(addrs, gatewayConfig())
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("gateway: %w", err)
	}
	c.gw = gw
	ring := gw.Ring()
	for _, sh := range c.shards {
		err := sh.fence.Apply(serve.RingUpdate{Epoch: ring.Epoch(), Seed: ring.Seed(),
			VirtualNodes: ring.VirtualNodes(), Replication: gatewayConfig().Replication,
			Members: ring.Nodes(), You: sh.addr})
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("fence %s: %w", sh.addr, err)
		}
	}
	return c, nil
}

// stop shuts the gateway and every shard down and waits for their
// goroutines. Safe on a partly started cluster and when called again.
func (c *testCluster) stop() {
	c.stopped.Do(func() {
		if c.gw != nil {
			if err := c.gw.Shutdown(10 * time.Second); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: gateway shutdown: %v\n", err)
			}
		}
		for _, sh := range c.shards {
			if err := sh.srv.Shutdown(10 * time.Second); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: shard %s shutdown: %v\n", sh.addr, err)
			}
		}
	})
}

// owner is the shard that owns key on the gateway's ring.
func (c *testCluster) owner(routeKey string) *shard {
	addr := c.gw.Ring().Owner(routeKey)
	for _, sh := range c.shards {
		if sh.addr == addr {
			return sh
		}
	}
	return nil
}

// compileWait blocks until every shard's queued compiles have finished.
func (c *testCluster) compileWait(timeout time.Duration) error {
	for _, sh := range c.shards {
		if err := sh.srv.CompileWait(timeout); err != nil {
			return fmt.Errorf("shard %s: %w", sh.addr, err)
		}
	}
	return nil
}

func (c *testCluster) snap() []shardSnap {
	out := make([]shardSnap, len(c.shards))
	for i, sh := range c.shards {
		out[i] = snapShard(sh.srv)
	}
	return out
}
