package spispan

import (
	"time"

	"ripple/internal/kvstore"
	"ripple/internal/mq"
)

// WrapMQ decorates a queuing system so every Put, PutLocal, Read and TryRead
// on its queue sets is recorded by rec. Calls are forwarded one for one on
// the caller's goroutine, so per-(sender,queue) FIFO order is untouched.
func WrapMQ(inner mq.Queuing, rec *Recorder) mq.Queuing {
	return &queuing{inner: inner, rec: rec}
}

type queuing struct {
	inner mq.Queuing
	rec   *Recorder
}

func (q *queuing) CreateQueueSet(name string, like kvstore.Table) (mq.Set, error) {
	a := q.rec.start(LayerMQ, OpMQAdmin, 0)
	s, err := q.inner.CreateQueueSet(name, like)
	a.end(err)
	if err != nil {
		return nil, err
	}
	return &set{inner: s, rec: q.rec}, nil
}

func (q *queuing) DeleteQueueSet(name string) error {
	a := q.rec.start(LayerMQ, OpMQAdmin, 0)
	err := q.inner.DeleteQueueSet(name)
	a.end(err)
	return err
}

type set struct {
	inner mq.Set
	rec   *Recorder
}

func (s *set) Name() string { return s.inner.Name() }
func (s *set) Queues() int  { return s.inner.Queues() }
func (s *set) Close() error { return s.inner.Close() }

func (s *set) Put(q int, msg any) error {
	a := s.rec.start(LayerMQ, OpMQPut, 0)
	err := s.inner.Put(q, msg)
	a.end(err)
	if !a.off() {
		s.rec.sample(msg)
	}
	return err
}

func (s *set) PutLocal(q int, msg any) error {
	a := s.rec.start(LayerMQ, OpMQPut, 0)
	err := s.inner.PutLocal(q, msg)
	a.end(err)
	return err
}

// Run blocks for the workers' whole life, so it is not a span of its own;
// the workers' reads are.
func (s *set) Run(w mq.Worker) error {
	return s.inner.Run(func(r mq.Reader) error { return w(&reader{inner: r, rec: s.rec}) })
}

func (s *set) ReaderFor(q int) (mq.Reader, error) {
	r, err := s.inner.ReaderFor(q)
	if err != nil {
		return nil, err
	}
	return &reader{inner: r, rec: s.rec}, nil
}

type reader struct {
	inner mq.Reader
	rec   *Recorder
}

func (r *reader) Queue() int { return r.inner.Queue() }
func (r *reader) Len() int   { return r.inner.Len() }

func (r *reader) Read(timeout time.Duration) (any, bool, error) {
	a := r.rec.start(LayerMQ, OpMQRead, 0)
	msg, ok, err := r.inner.Read(timeout)
	a.end(err)
	return msg, ok, err
}

func (r *reader) TryRead() (any, bool, error) {
	a := r.rec.start(LayerMQ, OpMQRead, 0)
	msg, ok, err := r.inner.TryRead()
	a.end(err)
	return msg, ok, err
}
