// Package fixture exercises the lockedio analyzer.
package fixture

import (
	"net"
	"sync"

	"snipe/internal/comm"
	"snipe/internal/xdr"
)

type peer struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	ep   *comm.Endpoint
	conn net.Conn
	fr   *xdr.FrameReader
	fw   *xdr.FrameWriter
}

func (p *peer) sendUnderLock() {
	p.mu.Lock()
	_ = p.ep.Send("peer", 1, nil) // want `network I/O \(Send\) while holding p.mu`
	p.mu.Unlock()
}

func (p *peer) writeUnderDeferredUnlock(buf []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, _ = p.conn.Write(buf) // want `network I/O \(net.Conn.Write\) while holding p.mu`
}

func (p *peer) readUnderReadLock(buf []byte) {
	p.rw.RLock()
	_, _ = p.conn.Read(buf) // want `network I/O \(net.Conn.Read\) while holding p.rw \(read lock\)`
	p.rw.RUnlock()
}

func (p *peer) branchLocal(buf []byte) {
	if len(buf) > 0 {
		p.mu.Lock()
		_, _ = p.conn.Write(buf) // want `network I/O`
		p.mu.Unlock()
	}
	_, _ = p.conn.Write(buf) // clean: branch-local lock does not leak here
}

func (p *peer) releasedBeforeIO(buf []byte) {
	p.mu.Lock()
	n := len(buf)
	p.mu.Unlock()
	_ = p.ep.Send("peer", uint32(n), buf) // clean: lock released
}

func (p *peer) goroutineIsFreshFrame() {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		_ = p.ep.Send("peer", 1, nil) // clean: separate goroutine, lock not held there
	}()
}

func (p *peer) frameWriteUnderLock(body []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fw.WriteFrame(body, nil) // want `network I/O \(WriteFrame\) while holding p.mu`
}

func (p *peer) frameReadUnderLock() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n, err := p.fr.Next() // want `network I/O \(Next\) while holding p.mu`
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if err := p.fr.ReadBody(buf); err != nil { // want `network I/O \(ReadBody\) while holding p.mu`
		return nil, err
	}
	return buf, nil
}

func (p *peer) frameLoopUnderLock(fn func([]byte) ([]byte, error)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fr.Serve(1<<20, nil, fn, nil) // want `network I/O \(Serve\) while holding p.mu`
}

func (p *peer) frameLoopAfterUnlock(fn func([]byte) ([]byte, error)) error {
	p.mu.Lock()
	limit := uint32(1 << 20)
	p.mu.Unlock()
	return p.fr.Serve(limit, nil, fn, nil) // clean: lock released
}

func (p *peer) frameWriteAfterUnlock(body []byte) error {
	p.mu.Lock()
	n := len(body)
	p.mu.Unlock()
	return p.fw.WriteFrame(body[:n], nil) // clean: lock released
}
