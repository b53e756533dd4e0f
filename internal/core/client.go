package core

import (
	"ddio/internal/cluster"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/sim"
)

// Client drives the CP side of a disk-directed collective operation
// (Figure 1c): barrier, one multicast request from a single CP, wait for
// every IOP to report completion, final barrier. CP memory is passive
// during the transfer — Memputs and Memgets address it by DMA.
type Client struct {
	m       *cluster.Machine
	f       *pfs.File
	dec     hpf.Access
	prm     Params
	servers []*Server

	barrier *sim.Barrier
	done    *sim.WaitGroup
	end     sim.Time
}

// NewClient builds the collective client for all of the machine's CPs.
func NewClient(m *cluster.Machine, f *pfs.File, dec hpf.Access, servers []*Server, prm Params) *Client {
	return &Client{
		m:       m,
		f:       f,
		dec:     dec,
		prm:     prm,
		servers: servers,
		barrier: sim.NewBarrier(m.Eng, "dd-collective", len(m.CPs)),
	}
}

// EndTime returns the time the coordinator observed completion, valid
// after the run.
func (c *Client) EndTime() sim.Time { return c.end }

// TransferCP runs cp's side of a collective read or write of the
// client's access (the whole file, for a matrix pattern).
func (c *Client) TransferCP(p *sim.Proc, cp int, write bool) {
	c.barrier.Wait(p)
	cpNode := c.m.CPs[cp]
	if cp == 0 {
		c.done = sim.NewWaitGroup(c.m.Eng, "dd-done", len(c.servers))
		// Multicast the collective request to all IOPs. The torus has
		// no hardware multicast; the coordinator unicasts, paying the
		// (tiny) per-request CPU cost once per IOP.
		for _, s := range c.servers {
			c.m.Send(cpNode, s.node, 64, c.prm.RequestCPU, &collReq{
				write: write,
				dec:   c.dec,
				src:   cpNode,
				done:  c.done,
			})
		}
		c.done.Wait(p)
		c.end = p.Now()
	}
	c.barrier.Wait(p)
}
