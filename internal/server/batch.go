package server

import (
	"bytes"
	"encoding/json"
	"net/http"
)

// maxBatchItems caps one POST /v1/batch request. The cap bounds the
// per-request work the same way maxPoints bounds a sweep: a client
// wanting more splits into multiple batches.
const maxBatchItems = 256

// batchRequest is N query items evaluated in one round-trip. Each item
// has exactly the POST /v1/query schema.
type batchRequest struct {
	Items []queryRequest `json:"items"`
}

// batchResponse returns one result per item, in item order. A result is
// either the item's query response or its error envelope (the same
// body a failing /v1/query would return); item failures do not fail the
// batch.
type batchResponse struct {
	Items   int               `json:"items"`
	Results []json.RawMessage `json:"results"`
}

// handleBatch evaluates N query items in item order on the request
// goroutine. Every item goes through evalQuery, i.e. the shared response
// cache and singleflight group: cached items cost no model evaluation,
// duplicate items within the batch (or concurrent with other requests)
// collapse to a single evaluation, and the batch as a whole performs at
// most N model evaluations.
func (s *Server) handleBatch(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	var req batchRequest
	if aerr := s.decodeBody(r, &req); aerr != nil {
		return nil, aerr
	}
	if len(req.Items) == 0 {
		return nil, errBadRequest("batch needs at least one item")
	}
	if len(req.Items) > maxBatchItems {
		return nil, errBadRequest("at most %d items per batch, got %d (split into multiple requests)",
			maxBatchItems, len(req.Items))
	}
	results := make([]json.RawMessage, len(req.Items))
	for i, item := range req.Items {
		resp, aerr := s.evalQuery(item)
		if aerr != nil {
			body, err := json.Marshal(errorEnvelope{Error: errorBody{
				Code:    aerr.Code,
				Status:  aerr.Status,
				Message: aerr.Message,
			}})
			if err != nil {
				return nil, errInternal("encoding batch item error: %v", err)
			}
			results[i] = body
			continue
		}
		// Cached bodies carry a trailing newline for curl; inside the
		// results array it would be noise.
		results[i] = bytes.TrimSuffix(resp.body, []byte("\n"))
	}
	return &batchResponse{Items: len(results), Results: results}, nil
}
