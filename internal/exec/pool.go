package exec

import "sync"

// pool collects the shared failure state of one ForEach fan-out.
type pool struct {
	wg         sync.WaitGroup
	mu         sync.Mutex
	firstErr   error
	firstPanic any
	panicked   bool
}

func (p *pool) stopped() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.firstErr != nil || p.panicked
}

func (p *pool) fail(err error) {
	p.mu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.mu.Unlock()
}

// run executes one job under panic capture.
func (p *pool) run(i int, job func(i int) error) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if !p.panicked {
				p.panicked = true
				p.firstPanic = r
			}
			p.mu.Unlock()
		}
	}()
	if err := job(i); err != nil {
		p.fail(err)
	}
}

// finish reports the pool outcome after wg.Wait: re-raise the first panic on
// the caller with its original value, so a recovered panic reads the same at
// every worker count; otherwise return the first error.
func (p *pool) finish() error {
	if p.panicked {
		panic(p.firstPanic)
	}
	return p.firstErr
}
