package main

import (
	"fmt"
	"strconv"
	"sync"
	"time"
)

// probeConn is the connection id of probe keys in the correctness model.
const probeConn = 9

// prober measures the client's view of t_last: it writes a fresh probe key
// at the origin replica every gap and polls another replica with GETs
// until the write shows up. Visibility runs from the write's ack at the
// origin to the reply of the first GET at the viewer that returns it.
type prober struct {
	origin, viewer *replica
	gap            time.Duration
	bin            binner

	writes  *book // probe SETs at the origin
	polls   *book // poll GETs at the viewer
	visible *windowed
	// unseen counts probes never seen at the viewer before the poll
	// window closed.
	unseen int
}

type probeAck struct {
	key, val string
	at       time.Time
}

func newProber(origin, viewer *replica, bin binner) *prober {
	pb := &prober{origin: origin, viewer: viewer, gap: 10 * time.Millisecond, bin: bin,
		writes: newBook(), polls: newBook(), visible: newWindowed(bin.n)}
	pb.writes.measure(bin)
	pb.polls.measure(bin)
	return pb
}

// run writes probes until deadline, then keeps polling outstanding probes
// for at most drain more. It returns when both loops have stopped.
func (pb *prober) run(deadline time.Time, drain time.Duration) error {
	wc, err := dialLine(pb.origin.client)
	if err != nil {
		return err
	}
	defer wc.close()
	vc, err := dialLine(pb.viewer.client)
	if err != nil {
		return err
	}
	defer vc.close()
	// Buffered for every probe one run can write, so the writer never
	// waits on the poller.
	acks := make(chan probeAck, int(time.Until(deadline)/pb.gap)+2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pb.poll(vc, acks, deadline.Add(drain))
	}()
	next := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		o := op{kind: opSet, key: "p_" + strconv.Itoa(i), val: valueFor(probeConn, i), start: time.Now()}
		reply, err := wc.roundTrip(o.line())
		pb.writes.done(o, reply, err)
		if err != nil || reply != "OK" {
			break
		}
		acks <- probeAck{key: o.key, val: o.val, at: time.Now()}
		next = next.Add(pb.gap)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	close(acks)
	wg.Wait()
	if pb.writes.failures()+pb.polls.failures() > 0 {
		err := pb.writes.firstErr
		if err == nil {
			err = pb.polls.firstErr
		}
		return fmt.Errorf("probe: %w", err)
	}
	return nil
}

// poll GETs each acked probe at the viewer back to back (a sleep would cost
// the timer's ~0.5 ms granularity in resolution) for its first 5 ms, then
// every millisecond.
func (pb *prober) poll(vc *lineConn, acks <-chan probeAck, stop time.Time) {
	for a := range acks {
		for {
			o := op{kind: opGet, key: a.key, start: time.Now()}
			reply, err := vc.roundTrip(o.line())
			pb.polls.done(o, reply, err)
			if err != nil {
				pb.unseen++
				break
			}
			now := time.Now()
			if reply == "VALUE "+a.val {
				pb.visible.add(pb.bin.index(now), now.Sub(a.at), 0)
				break
			}
			if now.After(stop) {
				pb.unseen++
				break
			}
			if now.Sub(a.at) > 5*time.Millisecond {
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// model returns the acked probe writes for the correctness gate.
func (pb *prober) model() map[string]expect { return pb.writes.model }
